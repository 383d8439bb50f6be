// Command benchmark is the repository's performance record in one command.
// Each invocation runs one workload in one process — grid-multiply,
// serve-repeat, serve-churn or analytics — builds its inputs from a seed,
// measures for a fixed number of seconds, checks every output, and prints
// each metric by name with its unit and the host conditions. The last line
// of standard output is one JSON object with the result.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload grid-multiply --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload serve-churn --seed 2 --seconds 20 --trace 1
//	bash benchmark/run.sh -compare <parent-dir> <change-dir>
//
// An untraced run (--trace 0) reports the end-to-end metrics of
// BENCHMARK.json; a traced run (--trace 1) reports the per-layer metrics and
// writes its spans to a file. README.md lists the metrics, the workloads and
// why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/blockreorg/blockreorg/sparse"
)

// workDir holds everything a run writes — spill files and span files —
// relative to the directory the benchmark runs in (the repository root).
// run.sh builds into the same directory.
const workDir = ".bench_build"

// procs is the GOMAXPROCS every run uses. On a host of a few shared
// virtual CPUs, how much of a second CPU a run gets changes from one minute
// to the next, and a run that spreads its work over two CPUs measures that
// rather than the program. One P measures each layer's cost on one core;
// the serve workloads size their servers to it.
const procs = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload or a comparison, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics and writes "+
		"its spans to "+filepath.Join(workDir, "trace-<workload>-<seed>.json"))
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition")
	compare := fs.Bool("compare", false, "compare two directories of run outputs: -compare <parent-dir> <change-dir>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs <parent-dir> <change-dir>")
			return 2
		}
		regressed, err := compareDirs(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	cfg := Config{
		Workload: *name,
		Seed:     *seed,
		Seconds:  *seconds,
		Traced:   *traced == 1,
		WorkDir:  workDir,
		Setups:   3,
		Sizes:    DefaultSizes(),
	}
	if cfg.Traced {
		cfg.TraceOut = filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", cfg.Workload, cfg.Seed))
	}
	res, err := Run(cfg, spec, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.Workload, err)
		return 1
	}
	line, err := res.JSON(spec)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: an output check failed\n", cfg.Workload)
		return 1
	}
	return 0
}

// Config is one run of one workload. The command line fills it from its
// flags; the smoke test fills it directly with tiny sizes.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the length of the measured phase.
	Seconds float64
	// Traced selects the traced run: spans around every layer call, the
	// per-layer metrics, and the layer decomposition after the measured
	// phase.
	Traced bool
	// TraceOut is where a traced run writes its spans ("" writes none).
	TraceOut string
	// WorkDir holds the out-of-core spill files.
	WorkDir string
	// Setups is how many times the workload sets up; setup_s is the median.
	Setups int
	Sizes  Sizes
}

// Sizes fixes the inputs of every workload. DefaultSizes is what the
// benchmark measures; the smoke test shrinks it.
type Sizes struct {
	// GridScale shrinks the Table II stand-ins of grid-multiply to
	// 1/GridScale of their published size; GridDatasets names them.
	GridScale    int
	GridDatasets []string
	// Dir is the benchmark's own directory: workloads/ holds the serve
	// traffic as workload.Spec files named <workload>.json, and testdata/
	// the grid goldens.
	Dir string
	// CheckSamples is how many serve structures are multiplied again with
	// their values returned and compared to the reference product.
	CheckSamples int
	// GraphNodes and GraphEdges size the analytics R-MAT graph before it is
	// symmetrized; PowerK is the length of its power chain and OOCBudget
	// the out-of-core engine's memory budget in bytes.
	GraphNodes, GraphEdges int
	PowerK                 int
	OOCBudget              int64
}

// DefaultSizes returns the sizes the benchmark measures.
func DefaultSizes() Sizes {
	return Sizes{
		GridScale:    32,
		GridDatasets: []string{"harbor", "QCD", "mario002", "youtube", "as-caida", "slashDot"},
		Dir:          "benchmark",
		CheckSamples: 8,
		GraphNodes:   2048,
		GraphEdges:   8192,
		PowerK:       3,
		OOCBudget:    2 << 20,
	}
}

// Result is the outcome of one run.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	// Metrics holds exactly the metrics the definition names for this
	// kind of run.
	Metrics map[string]float64
}

// JSON renders the result line the benchmark ends with.
func (r *Result) JSON(spec *Spec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for name, v := range r.Metrics {
		m, ok := spec.metric(name)
		if !ok {
			return "", fmt.Errorf("metric %q is not named in the benchmark definition", name)
		}
		metrics[name] = value{Value: v, Unit: m.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(data), err
}

// outcome is what a workload hands back to Run.
type outcome struct {
	checks    checks
	attempted int
	failed    int
	// setupS is the median set-up CPU time and opCPUMS the workload's
	// typical CPU time per operation, both in reference units; rawCPUMS is
	// opCPUMS in plain milliseconds, and refMS the median CPU time of the
	// reference kernel during the measured phase.
	setupS, opCPUMS, rawCPUMS, refMS float64
	// layers holds the workload's own per-layer metrics (traced run only);
	// bypassed names the metric families whose layers the workload never
	// reaches, which are reported as zero.
	layers   map[string]float64
	bypassed []string
	// samples are the operands the layer decomposition squares.
	samples []*sparse.CSR
}

// runner runs one workload and reports on it. It prints its checks and
// informational lines to out.
type runner func(cfg Config, tr *tracer, out io.Writer) (*outcome, error)

// workloads is the registry of runnable workloads.
var workloads = map[string]runner{
	"grid-multiply": runGrid,
	"serve-repeat":  runServeRepeat,
	"serve-churn":   runServeChurn,
	"analytics":     runAnalytics,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes one workload and assembles its metrics: the end-to-end set
// for an untraced run, the per-layer set for a traced one.
func Run(cfg Config, spec *Spec, out io.Writer) (*Result, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.Setups < 1 {
		cfg.Setups = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	traceFlag := 0
	if cfg.Traced {
		traceFlag = 1
	}
	fmt.Fprintf(out, "run workload=%s seed=%d seconds=%g trace=%d num_cpu=%d gomaxprocs=%d go=%s start_ns=%d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), time.Now().UnixNano())
	tr := newTracer(cfg.Traced)
	o, err := w(cfg, tr, out)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	if cfg.Traced {
		layers, err := decompose(o.samples, time.Duration(cfg.Seconds*float64(time.Second)/2), tr)
		if err != nil {
			return nil, fmt.Errorf("layer decomposition: %w", err)
		}
		for name, v := range layers {
			metrics[name] = v
		}
		for name, v := range o.layers {
			metrics[name] = v
		}
		metrics["host.reference_ms"] = o.refMS
		for _, family := range o.bypassed {
			for _, name := range layerFamilies[family] {
				metrics[name] = 0
			}
		}
	} else {
		metrics["setup_s"] = o.setupS
		metrics["op_cpu_ms"] = o.opCPUMS
	}
	if err := spec.checkEmitted(cfg.Traced, metrics); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, _ := spec.metric(name)
		fmt.Fprintf(out, "metric %s %s %s\n", name, strconv.FormatFloat(metrics[name], 'g', -1, 64), m.Unit)
	}
	errShare := 0.0
	if o.attempted > 0 {
		errShare = float64(o.failed) / float64(o.attempted)
	}
	info(out, "error_share", errShare, "ratio")
	info(out, "op_cpu_raw_ms", o.rawCPUMS, "ms")
	info(out, "reference_ms", o.refMS, "ms")
	// Peak RSS follows the collector's pacing more than the program's
	// needs, so it is reported but bounds nothing.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	info(out, "peak_rss_mb", rss, "MB")
	if err := tr.write(cfg.TraceOut); err != nil {
		return nil, err
	}
	if tr != nil && cfg.TraceOut != "" {
		fmt.Fprintf(out, "trace %s\n", cfg.TraceOut)
	}
	return &Result{
		Correct:   o.checks.ok(),
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   metrics,
	}, nil
}

// layerFamilies lists the per-layer metrics of the layers some workloads
// bypass; a workload that never reaches a layer reports its metrics as zero.
var layerFamilies = map[string][]string{
	"serve": {
		"loadgen.late_p99_ms", "loadgen.latency_p99_ms",
		"server.submit_p50_ms", "server.submit_p99_ms",
		"server.queue_wait_p50_ms", "server.queue_wait_p99_ms",
		"server.exec_p50_ms", "server.exec_p99_ms",
		"server.plan_hit_share", "server.plancache_evictions", "server.retained_mb",
		"server.phase.precompute_share", "server.phase.plan_share", "server.phase.simulate_share",
		"server.phase.execute_share", "server.phase.other_share",
	},
	"cluster": {"cluster.affinity_hit_share", "cluster.busiest_share"},
	"analytics": {
		"pipeline.mcl_solve_s", "pipeline.mcl_iterations", "pipeline.plan_hit_share", "pipeline.iter_p50_ms",
		"ooc.power_s", "ooc.tiles", "ooc.plan_hit_share", "ooc.loaded_mb", "ooc.spilled_mb", "ooc.peak_mb",
		"ooc.load_s", "ooc.reshard_s", "ooc.multiply_s", "ooc.spill_s", "ooc.merge_s", "ooc.slowdown",
	},
}

// info prints a number that is not one of the definition's metrics.
func info(out io.Writer, name string, v float64, unit string) {
	fmt.Fprintf(out, "info %s %s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// checks collects the outcome of the output checks.
type checks struct {
	failed []string
}

// expect records one check, printing its outcome.
func (c *checks) expect(out io.Writer, ok bool, format string, args ...any) {
	what := fmt.Sprintf(format, args...)
	status := "ok"
	if !ok {
		status = "FAILED"
		c.failed = append(c.failed, what)
	}
	fmt.Fprintf(out, "check %s: %s\n", what, status)
}

func (c *checks) ok() bool { return len(c.failed) == 0 }

// closer is an environment a workload sets up and tears down.
type closer interface{ close() }

// setUp builds a workload's environment n times, tearing down every build
// but the last, and returns the last with the median CPU time of a build in
// reference seconds (see reference.go). Repeating the set-up makes setup_s a
// median like every other timing, so work moved into set-up shows.
func setUp[E closer](n int, build func() (E, error)) (E, float64, error) {
	var env, zero E
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			env.close()
			env = zero // let the collector take it before the next build
		}
		refs := make([]float64, setupRefs)
		for k := range refs {
			refs[k] = referenceMS()
		}
		start := now()
		e, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, start.since().cpuMS/median(refs)/1e3)
		env = e
	}
	return env, median(times), nil
}

// setupRefs is how many reference kernel calls gauge the host's speed
// before each set-up.
const setupRefs = 5

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
