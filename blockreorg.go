package blockreorg

import (
	"context"
	"fmt"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

// Algorithm selects the spGEMM implementation.
type Algorithm string

// The seven algorithms of the paper's evaluation.
const (
	// BlockReorganizer is the paper's contribution: outer-product spGEMM
	// with B-Splitting, B-Gathering and B-Limiting applied.
	BlockReorganizer Algorithm = "Block-Reorganizer"
	// RowProduct is the paper's baseline: row-product expansion plus a
	// Gustavson dense-accumulator merge.
	RowProduct Algorithm = "row-product"
	// OuterProduct is the untransformed column-by-row baseline.
	OuterProduct Algorithm = "outer-product"
	// CuSPARSE, CUSP, BhSPARSE and MKL are emulations of the library
	// baselines.
	CuSPARSE Algorithm = "cuSPARSE"
	CUSP     Algorithm = "CUSP"
	BhSPARSE Algorithm = "bhSPARSE"
	MKL      Algorithm = "MKL"
)

// Algorithms lists every available algorithm in evaluation order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, 7)
	for _, alg := range kernels.All() {
		out = append(out, Algorithm(alg.Name()))
	}
	return out
}

// GPU names a simulated device.
type GPU string

// The paper's three evaluation devices (Table I).
const (
	TitanXp   GPU = "TITAN Xp"
	TeslaV100 GPU = "Tesla V100"
	RTX2080Ti GPU = "RTX 2080 Ti"
)

// Devices lists the available simulated GPUs.
func Devices() []GPU { return []GPU{TitanXp, TeslaV100, RTX2080Ti} }

// Options configures a multiplication.
type Options struct {
	// Algorithm defaults to BlockReorganizer.
	Algorithm Algorithm
	// GPU defaults to TitanXp.
	GPU GPU
	// SkipValues computes timing and symbolic structure only (Result.C
	// stays nil). Use it for large sweeps.
	SkipValues bool
	// Paranoid enables the deep sanitizer layer: operands are CheckDeep
	// validated, the Block Reorganizer's plan is verified against its
	// conservation invariants (core.VerifyPlan), and every simulated grid
	// is deep-checked before it runs. Setting the BLOCKREORG_PARANOID
	// environment variable enables the same checks globally — including
	// for Compare and the EXPERIMENTS pipeline — without code changes.
	Paranoid bool
	// Accumulator selects the merge strategy of the numeric product and of
	// the Gustavson-merge timing models: "auto" (or empty, the default)
	// picks per row from the symbolic upper bounds, "dense", "hash" and
	// "sort" force one strategy everywhere; the host merge has no table,
	// so under "hash" only the timing models price one and the numeric
	// product merges dense. The result is bit-identical for every
	// setting — the knob trades merge time, never values. Any other
	// string is ErrInvalidOptions. The fixed-strategy library
	// baselines (cuSPARSE, CUSP, bhSPARSE, MKL) keep their published
	// timing models regardless. It is a choice of each run, never part of
	// a plan: requests that differ only in it share a plan and a
	// PlanCache entry, and each prices its merge under its own setting.
	// The knob chooses the host merge of cold
	// runs only: a run driven by a plan that holds its product's
	// structure (Plan) fills values into it with the dense accumulator,
	// whatever the setting, and its rows count as dense in the
	// accum_rows_dense trace counter.
	Accumulator string
	// Workers bounds the host-side executor this run's numeric phases use:
	// 0 shares the process-wide work-stealing executor (sized to
	// GOMAXPROCS), 1 forces sequential execution, and n > 1 runs a
	// dedicated n-worker executor for just this multiplication. The result
	// is bit-identical for every setting — the knob trades latency against
	// interference with concurrent runs, never values. Negative counts are
	// ErrInvalidOptions.
	Workers int

	// Block Reorganizer tuning (ignored by other algorithms); zero values
	// select the paper's defaults.
	Alpha       float64 // dominator threshold divisor (default 10)
	Beta        float64 // limiting threshold multiplier (default 10)
	SplitFactor int     // fixed power-of-two splitting factor; 0 = greedy
	LimitFactor int     // extra merge shared memory in 6144B units (default 4)
	// Technique toggles for ablation studies.
	DisableSplit  bool
	DisableGather bool
	DisableLimit  bool

	// Plan optionally supplies a reusable preprocessing plan built by
	// NewPlan (directly or via Result.ReusablePlan) and bound to the
	// operands with Plan.Rebind. The multiplication then skips the
	// precalculation and classification work — the serving layer's
	// plan-cache fast path. A plan from Result.ReusablePlan of a run that
	// computed values also holds its product's column indices, and the
	// run only fills values into them: no merge, no per-row accumulator
	// choice. Requires Algorithm == BlockReorganizer (or empty) and a plan
	// bound to exactly (a, b); anything else is ErrInvalidOptions. The
	// operands a plan is bound to must keep their sparsity structure for
	// as long as the plan is used. The plan's embedded tuning governs the
	// run, so the Block Reorganizer tuning fields above are ignored; a
	// plan holds no accumulator, so Accumulator applies as on any run.
	Plan *Plan

	// Trace optionally attaches a phase-level tracing recorder
	// (NewTrace) to the run. Nil disables tracing at zero cost; see the
	// Trace type for what gets recorded and Profile for the output.
	Trace *Trace
}

// PlanSummary reports the Block Reorganizer classification of a run.
type PlanSummary struct {
	Pairs          int `json:"pairs"`
	Dominators     int `json:"dominators"`
	Normals        int `json:"normals"`
	LowPerformers  int `json:"low_performers"`
	SplitBlocks    int `json:"split_blocks"`
	CombinedBlocks int `json:"combined_blocks"`
	LimitedRows    int `json:"limited_rows"`
}

// Result is the outcome of a multiplication.
type Result struct {
	// C is the product matrix (nil when Options.SkipValues was set).
	C *sparse.CSR
	// Flops is the multiply-add count nnz(Ĉ); NNZC is nnz(C).
	Flops, NNZC int64
	// Timing on the simulated device. TotalSeconds includes host-side
	// preprocessing; the phase fields split the kernel time.
	TotalSeconds     float64
	ExpansionSeconds float64
	MergeSeconds     float64
	HostSeconds      float64
	GFLOPS           float64
	// ExpansionLBI is the load-balancing index (paper eq. 3) of the
	// expansion kernel, 0..1. Zero when the algorithm has no expansion
	// kernel on the device (MKL).
	ExpansionLBI float64
	// SyncStallPct is the expansion kernel's lock-step stall share.
	SyncStallPct float64
	// BlocksLaunched counts simulated thread blocks across all kernels.
	BlocksLaunched int64
	// Algorithm and Device echo the resolved options.
	Algorithm Algorithm
	Device    string
	// Plan summarizes the Block Reorganizer classification (nil for other
	// algorithms).
	Plan *PlanSummary
	// PlanReused reports that the run was driven by a caller-supplied
	// reusable plan (Options.Plan), skipping the precalculation phase.
	PlanReused bool

	// plan is the reusable preprocessing handle the run built or used;
	// see ReusablePlan.
	plan *Plan
}

// ReusablePlan returns the preprocessing plan this run built (or reused),
// ready to be cached and rebound to later operands with the same sparsity
// structure. A plan this run built while computing values holds the
// product's column indices too. It is nil for algorithms other than the
// Block Reorganizer; see NewPlan to build one without multiplying.
func (r *Result) ReusablePlan() *Plan { return r.plan }

// Multiply computes C = A×B with the configured algorithm on the simulated
// device.
//
// Faults in the request itself — nil or incompatible operands, unknown
// algorithm or device names, out-of-range tuning — are reported as
// ErrDimensionMismatch, ErrUnknownAlgorithm or ErrInvalidOptions (matched
// with errors.Is); any other error is an internal fault of the library.
func Multiply(a, b *sparse.CSR, opts Options) (*Result, error) {
	return run(context.Background(), a, b, opts, nil, 0, 0)
}

// run is the one path every multiplication takes: Multiply and
// MultiplyContext call it without a cache, PlanCache.Multiply with itself
// and the operands' structure fingerprints fpA and fpB. It validates the
// request once, fails fast on a context that is already done, binds a
// cached plan (counting the hit or miss), and runs the algorithm on the
// caller's goroutine — on an executor view that stops at ctx, when ctx can
// end. A run that fails or outlives ctx stores nothing; any other stores
// its plan in the cache.
func run(ctx context.Context, a, b *sparse.CSR, opts Options, cache *PlanCache, fpA, fpB uint64) (*Result, error) {
	alg, kopts, err := resolveOptions(a, b, &opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key, cacheable := planKeyFor(fpA, fpB, &opts, kopts)
	cacheable = cacheable && cache != nil
	if cacheable {
		if p := cache.bind(key, a, b); p != nil {
			kopts.Plan = p.plan
		}
	}
	kopts.Exec = kopts.Exec.WithContext(ctx)
	var execBefore parallel.Stats
	if opts.Trace.Enabled() {
		execBefore = parallel.ReadStats()
	}
	p, err := alg.Multiply(a, b, kopts)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	if opts.Trace.Enabled() {
		recordExecutorDelta(opts.Trace, execBefore)
	}
	res := wrapResult(p, opts.Algorithm)
	if cacheable {
		cache.put(key, res.plan)
	}
	return res, nil
}

// coreParams maps the Block Reorganizer tuning fields onto core.Params;
// Normalize on the result reports the faults Multiply rejects.
func (opts *Options) coreParams() core.Params {
	return core.Params{
		Alpha:               opts.Alpha,
		Beta:                opts.Beta,
		SplitFactorOverride: opts.SplitFactor,
		LimitFactor:         opts.LimitFactor,
		DisableSplit:        opts.DisableSplit,
		DisableGather:       opts.DisableGather,
		DisableLimit:        opts.DisableLimit,
	}
}

// resolveOptions validates the operands and options, fills defaults in
// place — the algorithm, the GPU and the Block Reorganizer tuning values,
// so requests that differ only in spelling a default share a plan key —
// and builds the internal kernel options. All client faults are mapped
// onto the package's typed errors here, in one place.
func resolveOptions(a, b *sparse.CSR, opts *Options) (kernels.Algorithm, kernels.Options, error) {
	var kopts kernels.Options
	if a == nil || b == nil {
		return nil, kopts, fmt.Errorf("%w: nil operand", ErrInvalidOptions)
	}
	if a.Cols != b.Rows {
		return nil, kopts, fmt.Errorf("%w: cannot multiply %dx%d by %dx%d",
			ErrDimensionMismatch, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if opts.Algorithm == "" {
		opts.Algorithm = BlockReorganizer
	}
	if opts.GPU == "" {
		opts.GPU = TitanXp
	}
	alg, err := kernels.ByName(string(opts.Algorithm))
	if err != nil {
		return nil, kopts, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, opts.Algorithm)
	}
	dev, err := gpusim.ByName(string(opts.GPU))
	if err != nil {
		return nil, kopts, fmt.Errorf("%w: unknown GPU %q", ErrInvalidOptions, opts.GPU)
	}
	if opts.Workers < 0 {
		return nil, kopts, fmt.Errorf("%w: negative worker count %d", ErrInvalidOptions, opts.Workers)
	}
	accum, err := sparse.ParseAccumulator(opts.Accumulator)
	if err != nil {
		return nil, kopts, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	params, err := opts.coreParams().Normalize()
	if err != nil {
		return nil, kopts, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	opts.Alpha, opts.Beta, opts.LimitFactor = params.Alpha, params.Beta, params.LimitFactor
	kopts = kernels.Options{
		Device:      dev,
		SkipValues:  opts.SkipValues,
		Paranoid:    opts.Paranoid,
		Trace:       opts.Trace,
		Accumulator: accum,
		Core:        opts.coreParams(),
		Exec:        parallel.Default(),
	}
	if opts.Workers > 0 {
		kopts.Exec = parallel.NewExecutor(opts.Workers)
	}
	if opts.Plan != nil {
		if opts.Algorithm != BlockReorganizer {
			return nil, kopts, fmt.Errorf("%w: plan reuse requires the %s algorithm, got %q",
				ErrInvalidOptions, BlockReorganizer, opts.Algorithm)
		}
		if !opts.Plan.BoundTo(a, b) {
			return nil, kopts, fmt.Errorf("%w: supplied plan is not bound to the operands (use Plan.Rebind)",
				ErrInvalidOptions)
		}
		kopts.Plan = opts.Plan.plan
	}
	return alg, kopts, nil
}

// wrapResult converts an internal product into the public Result.
func wrapResult(p *kernels.Product, alg Algorithm) *Result {
	res := &Result{
		C:                p.C,
		Flops:            p.Flops,
		NNZC:             p.NNZC,
		TotalSeconds:     p.Report.TotalSeconds(),
		ExpansionSeconds: p.Report.PhaseSeconds(gpusim.PhaseExpansion),
		MergeSeconds:     p.Report.PhaseSeconds(gpusim.PhaseMerge),
		HostSeconds:      p.Report.HostSeconds,
		GFLOPS:           p.GFLOPS(),
		Algorithm:        alg,
		Device:           p.Report.Device,
		PlanReused:       p.PlanReused,
	}
	if p.Plan != nil {
		res.plan = &Plan{plan: p.Plan}
	}
	for _, k := range p.Report.Kernels {
		res.BlocksLaunched += k.BlocksExecuted
		if k.Phase == gpusim.PhaseExpansion && k.Name != "" && res.ExpansionLBI == 0 && k.BlocksExecuted > 0 {
			res.ExpansionLBI = k.LBI
			res.SyncStallPct = k.SyncStallPct
		}
	}
	if p.PlanStats != nil {
		res.Plan = &PlanSummary{
			Pairs:          p.PlanStats.Pairs,
			Dominators:     p.PlanStats.Dominators,
			Normals:        p.PlanStats.Normals,
			LowPerformers:  p.PlanStats.LowPerformers,
			SplitBlocks:    p.PlanStats.SplitBlocks,
			CombinedBlocks: p.PlanStats.CombinedBlocks,
			LimitedRows:    p.PlanStats.LimitedRows,
		}
	}
	return res
}

// Square computes C = A² (the paper's primary workload).
func Square(a *sparse.CSR, opts Options) (*Result, error) {
	return Multiply(a, a, opts)
}

// Compare runs the same multiplication under every algorithm and returns
// the results in evaluation order. The symbolic analysis of the operands is
// computed once and shared across the seven runs; values are skipped (the
// algorithms' numeric agreement is enforced by the library's tests). Faulty
// requests are reported with the typed errors Multiply uses.
func Compare(a, b *sparse.CSR, gpu GPU) ([]*Result, error) {
	opts := Options{GPU: gpu, SkipValues: true}
	_, kopts, err := resolveOptions(a, b, &opts)
	if err != nil {
		return nil, err
	}
	kopts.Pre, err = kernels.PrecomputeOn(a, b, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, 7)
	for _, alg := range kernels.All() {
		p, err := alg.Multiply(a, b, kopts)
		if err != nil {
			return nil, err
		}
		out = append(out, wrapResult(p, Algorithm(alg.Name())))
	}
	return out, nil
}

// Speedup returns the ratio of the baseline's time to this result's time —
// how the paper's figures normalize performance.
func (r *Result) Speedup(baseline *Result) float64 {
	if r.TotalSeconds == 0 {
		return 0
	}
	return baseline.TotalSeconds / r.TotalSeconds
}
