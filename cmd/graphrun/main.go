// Command graphrun executes an iterative graph-analytics workload — matrix
// powers / multi-hop reachability, Markov clustering, or neighbor
// similarity — on a sparse network through the pipeline engine, with
// cross-iteration plan reuse and optional phase profiling.
//
//	graphrun -workload mcl -in net.mtx -inflation 2 -prune 1e-4
//	graphrun -workload power -in net.mtx -k 4 -collapse -selfloops -profile
//	graphrun -workload similarity -in net.mtx -measure cosine -mask new -o scores.mtx
//	graphrun -workload power -in net.seg -k 4 -mem-budget 64M -profile
//
// Input is a Matrix Market file or a segmented container (genmat -stream)
// — sparse.ReadFile detects the format from the file itself. The
// per-iteration table reports the iterate's population, whether the
// iteration's multiply rebound a cached preprocessing plan, the simulated
// device time, and the convergence measure. -profile adds
// the phase breakdown: pipeline.* step spans plus the multiplies' own
// phases, double-attributed by design (see internal/trace).
//
// -mem-budget SIZE (accepting K/M/G suffixes) routes every expansion
// multiply through the out-of-core tiled engine with that working-set
// budget; the result is bit-identical to the in-memory run. -spill-dir
// chooses where panels spill (default: a private temp dir).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/pipeline"
	"github.com/blockreorg/blockreorg/sparse"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("graphrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "mcl", "workload: power | mcl | similarity")
		in        = fs.String("in", "", "input matrix file: Matrix Market or segmented container (required)")
		symmetric = fs.Bool("symmetrize", false, "symmetrize the input (A + Aᵀ) before running")

		k         = fs.Int("k", 2, "power: exponent / hop count")
		collapse  = fs.Bool("collapse", false, "power: boolean semiring (reachability, not weights)")
		selfloops = fs.Bool("selfloops", false, "power: add self-loops (transitive closure)")
		fixpoint  = fs.Bool("fixpoint", false, "power: stop early when the iterate stops changing")

		inflation = fs.Float64("inflation", 2, "mcl: inflation factor")
		prune     = fs.Float64("prune", 1e-4, "mcl: prune tolerance")
		eps       = fs.Float64("eps", 1e-6, "mcl: chaos convergence threshold")
		maxiter   = fs.Int("maxiter", 0, "mcl: iteration bound (0 = default)")

		measure  = fs.String("measure", "common", "similarity: common | cosine")
		mask     = fs.String("mask", "none", "similarity: none | existing | new")
		minscore = fs.Float64("minscore", 0, "similarity: drop scores at or below this")

		alg       = fs.String("alg", "", "spGEMM algorithm (default Block-Reorganizer)")
		gpu       = fs.String("gpu", "", "simulated GPU (default TITAN Xp)")
		workers   = fs.Int("workers", 0, "host executor width (0 = shared pool, 1 = sequential)")
		noreuse   = fs.Bool("noreuse", false, "disable the cross-iteration plan cache (and the tile plan cache under -mem-budget)")
		memBudget = fs.String("mem-budget", "", "run multiplies out of core under this working-set budget (e.g. 64M, 2G)")
		spillDir  = fs.String("spill-dir", "", "out-of-core scratch/spill directory (default: private temp dir)")
		profile   = fs.Bool("profile", false, "print the phase breakdown after the run")
		clusters  = fs.Bool("clusters", false, "mcl: print the full node -> cluster table")
		out       = fs.String("o", "", "write the result matrix as Matrix Market")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "graphrun: -in FILE is required")
		return 2
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		fmt.Fprintln(stderr, "graphrun:", err)
		return 2
	}
	a, err := sparse.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(stderr, "graphrun:", err)
		return 1
	}
	if *symmetric {
		if a, err = a.Symmetrize(); err != nil {
			fmt.Fprintln(stderr, "graphrun:", err)
			return 1
		}
	}

	rec := blockreorg.NewTrace()
	opts := pipeline.Options{
		Algorithm:   blockreorg.Algorithm(*alg),
		GPU:         blockreorg.GPU(*gpu),
		Workers:     *workers,
		NoPlanReuse: *noreuse,
		MemBudget:   budget,
		SpillDir:    *spillDir,
		Trace:       rec,
	}

	var res *pipeline.Result
	var mres *pipeline.MCLResult
	ctx := context.Background()
	switch *workload {
	case "power":
		res, err = pipeline.PowerIterate(ctx, a, *k, pipeline.PowerOptions{
			Collapse:       *collapse,
			SelfLoops:      *selfloops,
			StopOnFixpoint: *fixpoint,
		}, opts)
	case "mcl":
		mres, err = pipeline.MCL(ctx, a, pipeline.MCLOptions{
			Inflation:     *inflation,
			PruneTol:      *prune,
			Epsilon:       *eps,
			MaxIterations: *maxiter,
		}, opts)
		if err == nil {
			res = mres.Result
		}
	case "similarity":
		res, err = pipeline.Similarity(ctx, a, pipeline.SimilarityOptions{
			Measure:  *measure,
			Mask:     *mask,
			MinScore: *minscore,
		}, opts)
	default:
		fmt.Fprintf(stderr, "graphrun: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "graphrun:", err)
		return 1
	}

	fmt.Fprintf(stdout, "%s: %dx%d input, nnz=%d\n", *workload, a.Rows, a.Cols, a.NNZ())
	fmt.Fprintf(stdout, "%-5s %10s %5s %12s %12s %12s\n", "iter", "nnz", "plan", "flops", "sim(s)", "delta")
	for _, it := range res.Iters {
		planTag := "miss"
		if it.PlanHit {
			planTag = "hit"
		}
		fmt.Fprintf(stdout, "%-5d %10d %5s %12d %12.3e %12.3e\n",
			it.Iteration, it.NNZ, planTag, it.Flops, it.SimSeconds, it.Delta)
	}
	fmt.Fprintf(stdout, "iterations=%d converged=%v plan hits=%d misses=%d result nnz=%d\n",
		res.Iterations, res.Converged, res.PlanHits, res.PlanMisses, res.M.NNZ())
	if mres != nil {
		fmt.Fprintf(stdout, "clusters=%d\n", mres.NumClusters)
		if *clusters {
			for node, c := range mres.Clusters {
				fmt.Fprintf(stdout, "node %d -> cluster %d\n", node, c)
			}
		}
	}

	if *profile {
		printProfile(stdout, rec.Profile())
	}
	if *out != "" {
		if err := sparse.WriteMatrixMarketFile(*out, res.M); err != nil {
			fmt.Fprintln(stderr, "graphrun:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return 0
}

// printProfile renders the phase breakdown and pipeline counters.
func printProfile(w io.Writer, p *blockreorg.Profile) {
	fmt.Fprintf(w, "\nphase breakdown (wall %.3fs):\n", p.WallSeconds)
	fmt.Fprintf(w, "%-20s %8s %12s %7s\n", "phase", "calls", "seconds", "share")
	for _, b := range p.Phases {
		fmt.Fprintf(w, "%-20s %8d %12.6f %6.1f%%\n", b.Phase, b.Calls, b.Seconds, 100*b.Share)
	}
	for _, c := range []string{
		"pipeline_iterations", "pipeline_plan_hits",
		"pipeline_plan_misses", "pipeline_pruned_entries",
	} {
		fmt.Fprintf(w, "%-24s %d\n", c, p.Counters[c])
	}
	if p.Counters["ooc_tiles"] > 0 {
		for _, c := range []string{
			"ooc_tiles", "ooc_tile_plan_hits", "ooc_tile_plan_misses",
			"ooc_bytes_loaded", "ooc_bytes_spilled",
		} {
			fmt.Fprintf(w, "%-24s %d\n", c, p.Counters[c])
		}
		fmt.Fprintf(w, "%-24s %.0f\n", "ooc_budget_bytes", p.Gauges["ooc_budget_bytes"])
		fmt.Fprintf(w, "%-24s %.0f\n", "ooc_peak_tracked_bytes", p.Gauges["ooc_peak_tracked_bytes"])
	}
}

// parseBytes parses a byte size with an optional K/M/G suffix (powers of
// 1024). Empty means zero.
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
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
