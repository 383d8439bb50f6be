package trace

import (
	"sync"
	"time"
)

// Phase names one stage of the multiplication pipeline, in the paper's
// terminology where a paper phase exists.
type Phase string

// The span taxonomy, in pipeline order. DESIGN.md §11 maps each phase onto
// the paper's figures.
const (
	// PhaseIntermediate is the block/row-wise workload sweep over nnz(Ĉ)
	// (the paper's precalculation of intermediate populations).
	PhaseIntermediate Phase = "intermediate-nnz"
	// PhaseSymbolic is the exact symbolic product sweep (row populations
	// of C), the second half of the precalculation.
	PhaseSymbolic Phase = "symbolic-nnz"
	// PhaseConvert is the A→CSC reorientation the outer-product form needs.
	PhaseConvert Phase = "csc-convert"
	// PhaseClassify bins every column/row pair into dominators, normals
	// and low performers (paper §IV-B).
	PhaseClassify Phase = "classification"
	// PhaseSplit is B-Splitting: chunking dominator pairs into power-of-two
	// sub-blocks and building A′ plus the mapper array (paper §IV-C).
	PhaseSplit Phase = "b-splitting"
	// PhaseGather is B-Gathering: packing low performers into combined
	// warp blocks (paper §IV-D).
	PhaseGather Phase = "b-gathering"
	// PhaseLimit is B-Limiting: marking long merge rows for extra shared
	// memory (paper §IV-E).
	PhaseLimit Phase = "b-limiting"
	// PhaseSimulate is the device-model execution of the launch: the time
	// the host spends running kernels through gpusim (the simulated
	// durations themselves are reported by the Result, not here).
	PhaseSimulate Phase = "simulate"
	// PhaseExpansion is the host-side numeric product: the row-wise engine
	// expanding and merging every output row into its final slot (the
	// functional counterpart of the expansion and B-Limited merge
	// kernels).
	PhaseExpansion Phase = "expansion"
	// PhaseOther is the unattributed remainder: total wall time minus the
	// instrumented phases. Profiles include it so the phase sum equals the
	// end-to-end wall time exactly.
	PhaseOther Phase = "other"
)

// The pipeline engine's span taxonomy (package pipeline): one span per
// iteration step of an iterative spGEMM workload. PipelineExpand wraps a
// whole multiplication, whose inner phases record on the same recorder, so
// a pipeline profile attributes that time twice — once to the step and
// once to the multiplication's own phases. The "other" remainder therefore
// never appears in pipeline profiles (the accounted time already exceeds
// the wall time); per-phase shares remain exact.
const (
	// PhasePipelineExpand is one expansion step: the spGEMM multiply of an
	// iteration (M·M for MCL, M·A for power chains, A·Aᵀ for similarity).
	PhasePipelineExpand Phase = "pipeline.expand"
	// PhasePipelineInflate is one inflation step: elementwise power plus
	// column normalization (MCL), or the similarity post-scaling.
	PhasePipelineInflate Phase = "pipeline.inflate"
	// PhasePipelinePrune is one pruning step: dropping sub-tolerance
	// entries and renormalizing.
	PhasePipelinePrune Phase = "pipeline.prune"
	// PhasePipelineConverge is one convergence test: the chaos or
	// idempotence sweep that decides whether the iteration stops.
	PhasePipelineConverge Phase = "pipeline.converge"
)

// The out-of-core engine's span taxonomy (package ooc): one multiply is a
// sequence of panel loads, tile multiplies, tile spills, and a final
// row-merge producing the streamed result. OOCMultiply wraps the whole
// planned multiplication of one tile pair, whose inner phases record on
// the same recorder — the same double-attribution convention as the
// pipeline phases above.
const (
	// PhaseOOCLoad covers reading operand panels from the segmented
	// container into memory.
	PhaseOOCLoad Phase = "ooc.load"
	// PhaseOOCReshard covers the one-time pass slicing B into per-column-
	// panel scratch files (reused across iterations for a fixed B).
	PhaseOOCReshard Phase = "ooc.reshard"
	// PhaseOOCMultiply covers the planned multiplication of one tile pair.
	PhaseOOCMultiply Phase = "ooc.multiply"
	// PhaseOOCSpill covers writing partial result tiles to the spill
	// directory.
	PhaseOOCSpill Phase = "ooc.spill"
	// PhaseOOCMerge covers the k-way row merge of spilled tiles into the
	// final streamed result.
	PhaseOOCMerge Phase = "ooc.merge"
)

// Phases returns the taxonomy in pipeline order (PhaseOther last).
func Phases() []Phase {
	return []Phase{
		PhaseIntermediate, PhaseSymbolic, PhaseConvert,
		PhaseClassify, PhaseSplit, PhaseGather, PhaseLimit,
		PhaseSimulate, PhaseExpansion,
		PhasePipelineExpand, PhasePipelineInflate,
		PhasePipelinePrune, PhasePipelineConverge,
		PhaseOOCLoad, PhaseOOCReshard, PhaseOOCMultiply,
		PhaseOOCSpill, PhaseOOCMerge,
		PhaseOther,
	}
}

// Counter and gauge names recorded by the instrumented pipeline. Counters
// accumulate by addition; gauges keep the last value set.
const (
	// Classification populations (from core.PlanStats).
	CounterPairs          = "pairs"
	CounterDominators     = "dominators"
	CounterNormals        = "normals"
	CounterLowPerformers  = "low_performers"
	CounterSplitBlocks    = "split_blocks"
	CounterCombinedBlocks = "combined_blocks"
	CounterLimitedRows    = "limited_rows"
	// Workload volume.
	CounterFlops = "flops"
	CounterNNZC  = "nnz_c"
	// Host execution engine deltas over the traced region (process-wide
	// counters, so concurrent runs bleed into each other's deltas; exact
	// in single-run tools like blockreorg-bench -profile).
	CounterExecRuns    = "executor_parallel_runs"
	CounterExecInline  = "executor_inline_runs"
	CounterExecChunks  = "executor_chunks"
	CounterExecSteals  = "executor_steals"
	CounterArenaGets   = "arena_gets"
	CounterArenaAllocs = "arena_allocs"
	// Pipeline engine accounting (package pipeline): iterations run, and
	// the cross-iteration plan cache's hit/miss split. A hit means the
	// iteration's multiply reused a previously built preprocessing plan
	// via Rebind, skipping the precalculation entirely.
	CounterPipelineIterations = "pipeline_iterations"
	CounterPipelinePlanHits   = "pipeline_plan_hits"
	CounterPipelinePlanMisses = "pipeline_plan_misses"
	CounterPipelinePruned     = "pipeline_pruned_entries"
	// Accumulator selection: rows merged per host strategy (see
	// sparse.AccumulatorKind). Recorded once per numeric product by the
	// host engine (sparse.MultiplyConfigured), for every algorithm, so the
	// two counters sum to the product's populated row count; runs with
	// SkipValues merge nothing and record none.
	CounterAccumDenseRows = "accum_rows_dense"
	CounterAccumSortRows  = "accum_rows_sort"
	// Out-of-core engine accounting (package ooc): tile pairs multiplied,
	// the tile-plan cache's hit/miss split (a hit reuses a structurally
	// identical tile pair's preprocessing via Rebind), and the traffic
	// through the memory budget — bytes of operand panels loaded and bytes
	// of partial result tiles spilled.
	CounterOOCTiles       = "ooc_tiles"
	CounterOOCPlanHits    = "ooc_tile_plan_hits"
	CounterOOCPlanMisses  = "ooc_tile_plan_misses"
	CounterOOCBytesLoaded = "ooc_bytes_loaded"
	CounterOOCBytesSpill  = "ooc_bytes_spilled"

	// GaugeAlpha and GaugeBeta are the resolved threshold divisors;
	// GaugeSplitFactorMax is the largest splitting factor chosen,
	// GaugeLimitExtraShmem the extra shared memory (bytes) granted to
	// limited merge blocks, GaugeArenaHitRate 1 - allocs/gets over the
	// traced region.
	GaugeAlpha          = "alpha"
	GaugeBeta           = "beta"
	GaugeSplitFactorMax = "split_factor_max"
	GaugeLimitExtraShm  = "limit_extra_shared_bytes"
	GaugeArenaHitRate   = "arena_hit_rate"
	// GaugeOOCBudget is the configured out-of-core memory budget in bytes;
	// GaugeOOCPeakBytes the accountant's high-water mark of tracked
	// allocations, which correctness tests assert stays under the budget.
	GaugeOOCBudget    = "ooc_budget_bytes"
	GaugeOOCPeakBytes = "ooc_peak_tracked_bytes"
)

// span is one recorded interval.
type span struct {
	phase Phase
	start time.Time
	dur   time.Duration
	items int64
}

// Recorder collects spans, counters and gauges for one traced region
// (typically one multiplication). The zero value is not used directly;
// construct with New. A nil *Recorder is the disabled state: every method
// is a no-op costing neither time measurement nor allocation, so
// instrumented code calls it unconditionally.
type Recorder struct {
	mu       sync.Mutex
	started  time.Time
	spans    []span
	counters map[string]int64
	gauges   map[string]float64
}

// New returns an enabled recorder whose wall clock starts now.
func New() *Recorder {
	return &Recorder{
		started:  time.Now(),
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
	}
}

// noop is the shared disabled span terminator, so Span on a nil recorder
// allocates nothing.
var noop = func() {}

// Span opens a span for phase and returns the function that closes it:
//
//	done := rec.Span(trace.PhaseClassify)
//	... work ...
//	done()
//
// Safe to call on a nil recorder (returns a shared no-op) and from any
// goroutine.
func (r *Recorder) Span(phase Phase) func() {
	if r == nil {
		return noop
	}
	start := time.Now()
	return func() { r.Observe(phase, 0, time.Since(start)) }
}

// SpanItems is Span with an item count attached when the span closes —
// nnz processed, blocks launched, rows merged.
func (r *Recorder) SpanItems(phase Phase, items int64) func() {
	if r == nil {
		return noop
	}
	start := time.Now()
	return func() { r.Observe(phase, items, time.Since(start)) }
}

// Observe records one completed interval directly.
func (r *Recorder) Observe(phase Phase, items int64, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{phase: phase, start: time.Now().Add(-d), dur: d, items: items})
	r.mu.Unlock()
}

// Add accumulates n onto the named counter.
func (r *Recorder) Add(counter string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[counter] += n
	r.mu.Unlock()
}

// Set records the named gauge, overwriting any previous value.
func (r *Recorder) Set(gauge string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[gauge] = v
	r.mu.Unlock()
}

// Now returns the current time when tracing is enabled and the zero time
// otherwise — the manual-span primitive, paired with Since and Observe,
// for phases whose item counts are only known once they finish.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since returns the elapsed time from a Now result (zero when disabled).
func (r *Recorder) Since(start time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(start)
}

// Enabled reports whether the recorder actually records (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }
