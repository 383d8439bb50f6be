// Command blockreorg-bench regenerates the tables and figures of the Block
// Reorganizer paper's evaluation on the simulated devices.
//
//	blockreorg-bench -list
//	blockreorg-bench fig8 fig10
//	blockreorg-bench -scale 4 -csv results/ all
//	blockreorg-bench -mem-budget 4M -datasets as-caida
//
// Each experiment prints its tables; -csv additionally writes one CSV per
// table into the given directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/blockreorg/blockreorg/internal/bench"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiments and exit")
		scale     = flag.Int("scale", 8, "dataset scale divisor (1 = full published size)")
		gpu       = flag.String("gpu", "TITAN Xp", "simulated GPU for single-device experiments")
		csvDir    = flag.String("csv", "", "directory to write per-table CSV files into")
		subset    = flag.String("datasets", "", "comma-separated dataset subset for grid experiments")
		cacheDir  = flag.String("cachedir", "", "directory to cache generated datasets between runs")
		workers   = flag.Int("workers", 0, "host executor workers (0 = GOMAXPROCS, 1 = sequential)")
		profile   = flag.Bool("profile", false, "trace one Block Reorganizer run per dataset and write the per-phase record")
		profFile  = flag.String("profileout", "PROFILE_host.json", "per-phase record path for -profile")
		accum     = flag.String("accum", "auto", "merge accumulator strategy: auto, dense, hash or sort")
		memBudget = flag.String("mem-budget", "", "run each dataset's A² out of core under this working-set budget (e.g. 4M) and compare with the in-memory run")
	)
	flag.Parse()

	accumKind, err := sparse.ParseAccumulator(*accum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blockreorg-bench:", err)
		os.Exit(2)
	}

	if *list {
		listExperiments(os.Stdout)
		return
	}
	if *profile {
		if err := runProfile(os.Stdout, *profFile, *scale, *gpu, *subset, *cacheDir, *workers, *csvDir, accumKind); err != nil {
			fmt.Fprintln(os.Stderr, "blockreorg-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *memBudget != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blockreorg-bench:", err)
			os.Exit(2)
		}
		if err := runOOC(os.Stdout, budget, *scale, *gpu, *subset, *cacheDir, *workers, *csvDir, accumKind); err != nil {
			fmt.Fprintln(os.Stderr, "blockreorg-bench:", err)
			os.Exit(1)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "blockreorg-bench: no experiments given; use -list or 'all'")
		os.Exit(2)
	}

	dev, err := gpusim.ByName(*gpu)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blockreorg-bench:", err)
		os.Exit(2)
	}
	cfg := bench.Config{Scale: *scale, Device: dev, CacheDir: *cacheDir, Workers: *workers, Accum: accumKind}
	if *subset != "" {
		cfg.Datasets = strings.Split(*subset, ",")
	}
	if err := runExperiments(os.Stdout, ids, cfg, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "blockreorg-bench:", err)
		os.Exit(1)
	}
}

// runProfile traces one Block Reorganizer multiplication per Table II
// dataset (defaulting to the reduced Table II grid), prints the per-phase
// share table of the phases that fired, and writes the machine-readable record to path. -csv
// additionally exports the table.
func runProfile(w io.Writer, path string, scale int, gpu, subset, cacheDir string, workers int, csvDir string, accum sparse.AccumulatorKind) error {
	dev, err := gpusim.ByName(gpu)
	if err != nil {
		return err
	}
	cfg := bench.Config{Scale: scale, Device: dev, CacheDir: cacheDir, Workers: workers, Accum: accum}
	if subset != "" {
		cfg.Datasets = strings.Split(subset, ",")
	}
	fmt.Fprintf(w, "profiling host phases (scale 1/%d, GOMAXPROCS=%d)...\n", scale, runtime.GOMAXPROCS(0))
	rep, err := bench.RunProfile(cfg)
	if err != nil {
		return err
	}
	t := rep.Table()
	fmt.Fprintln(w)
	t.Render(w)
	if csvDir != "" {
		if err := writeCSV(csvDir, "profile_host.csv", t); err != nil {
			return err
		}
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nper-phase record written to %s\n", path)
	return nil
}

// runOOC squares each selected dataset once in memory and once through
// the out-of-core tiled engine under the given byte budget, and renders
// the tiling cost table: grid, plan cache traffic, streamed and spilled
// volume, peak tracked bytes against the budget, and whether the two
// products agreed bit for bit.
func runOOC(w io.Writer, budget int64, scale int, gpu, subset, cacheDir string, workers int, csvDir string, accum sparse.AccumulatorKind) error {
	dev, err := gpusim.ByName(gpu)
	if err != nil {
		return err
	}
	cfg := bench.Config{Scale: scale, Device: dev, CacheDir: cacheDir, Workers: workers, Accum: accum}
	if subset != "" {
		cfg.Datasets = strings.Split(subset, ",")
	}
	fmt.Fprintf(w, "out-of-core A² under a %d-byte budget (scale 1/%d)...\n", budget, scale)
	runs, err := bench.RunOOC(cfg, budget)
	if err != nil {
		return err
	}
	t := bench.OOCTable(budget, runs)
	fmt.Fprintln(w)
	t.Render(w)
	if csvDir != "" {
		if err := writeCSV(csvDir, "ooc_budget.csv", t); err != nil {
			return err
		}
	}
	for _, r := range runs {
		if !r.Identical {
			return fmt.Errorf("out-of-core %s result not identical to the in-memory run", r.Dataset)
		}
	}
	return nil
}

// parseBytes parses a byte size with an optional K/M/G suffix (powers of
// 1024).
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid -mem-budget %q (want e.g. 500K, 64M, 2G)", s)
	}
	return n * mult, nil
}

// listExperiments prints the experiment catalog.
func listExperiments(w io.Writer) {
	for _, e := range bench.All() {
		fmt.Fprintf(w, "%-10s %s\n", e.ID, e.Title)
	}
}

// runExperiments executes the named experiments ("all" expands to the full
// registry), rendering tables to w and optionally exporting CSVs.
func runExperiments(w io.Writer, ids []string, cfg bench.Config, csvDir string) error {
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "   paper: %s\n", e.Expectation)
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for i, t := range tables {
			fmt.Fprintln(w)
			t.Render(w)
			if csvDir != "" {
				if err := writeCSV(csvDir, fmt.Sprintf("%s_%d.csv", e.ID, i), t); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(w, "\n   (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}

// writeCSV exports one table into dir/name.
func writeCSV(dir, name string, t interface{ WriteCSV(io.Writer) error }) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
