package pipeline

import (
	"context"
	"fmt"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/ooc"
	"github.com/blockreorg/blockreorg/sparse"
)

// DefaultMaxIterations bounds pipelines whose Pipeline.MaxIterations is
// left zero. Convergent workloads (MCL) normally stop long before it.
const DefaultMaxIterations = 64

// planCacheSize bounds the Runner's per-run plan cache. Iterative
// workloads cycle between at most a handful of operand structures, so a
// small cache captures every realistic reuse chain.
const planCacheSize = 16

// Options configures a Runner. The zero value runs the Block Reorganizer
// on the default simulated device with plan reuse enabled and tracing off.
type Options struct {
	// Algorithm selects the spGEMM implementation for every expansion
	// step; empty means blockreorg.BlockReorganizer. Plan reuse only
	// exists for the Block Reorganizer — other algorithms run every
	// multiply cold and report zero hits.
	Algorithm blockreorg.Algorithm
	// GPU names the simulated device (empty = blockreorg.TitanXp).
	GPU blockreorg.GPU
	// Workers is forwarded to blockreorg.Options.Workers: 0 shares the
	// process-wide work-stealing executor, 1 forces sequential multiplies,
	// n > 1 uses a dedicated executor. Results are bit-identical for every
	// setting.
	Workers int
	// Paranoid enables the deep sanitizer layer on every multiply.
	Paranoid bool
	// NoPlanReuse disables the cross-iteration plan cache, and under
	// MemBudget the out-of-core engine's tile plan cache; every multiply
	// then pays its own preprocessing. Useful for measuring what the cache
	// buys.
	NoPlanReuse bool
	// Trace optionally attaches a phase recorder (blockreorg.NewTrace) to
	// the run. Steps record pipeline.* spans on it, the multiplies inside
	// record their own phase spans, and the Runner accumulates the
	// pipeline_iterations / pipeline_plan_hits / pipeline_plan_misses
	// counters.
	Trace *blockreorg.Trace
	// MemBudget, when positive, routes every expansion multiply through
	// the out-of-core tiled engine (package ooc) with this working-set
	// byte budget: operands are cut into panels, tile products spill to
	// disk, and the result is reassembled — bit-identical to the
	// in-memory path for any budget, so PowerIterate and MCL produce the
	// same matrices either way. Plan hits and misses are then counted
	// per tile rather than per multiply (a tile grid reuses one plan per
	// tile across iterations; an iteration's PlanHit is set when no tile
	// missed). Requires the Block Reorganizer algorithm.
	MemBudget int64
	// SpillDir hosts the out-of-core engine's scratch and spill files.
	// Empty uses a private temporary directory removed when the run
	// ends; a caller-supplied directory is created if missing and only
	// the engine's own files are deleted from it. Ignored without
	// MemBudget.
	SpillDir string
}

// Step is one stage of a pipeline iteration. Implementations mutate or
// replace the iterate in the State they are handed; an error aborts the
// run.
type Step interface {
	// Name labels the step in error messages.
	Name() string
	// Apply runs the step against the current state.
	Apply(st *State) error
}

// Pipeline is an ordered list of steps iterated until a step reports
// convergence or MaxIterations is reached.
type Pipeline struct {
	// Name labels the workload ("power", "mcl", "similarity", or anything
	// a custom caller chooses).
	Name string
	// MaxIterations bounds the run (0 = DefaultMaxIterations).
	MaxIterations int
	// Steps run in order within each iteration.
	Steps []Step
}

// State is the mutable carrier threaded through the steps of a run.
type State struct {
	// M is the iterate — the matrix the pipeline evolves.
	M *sparse.CSR
	// A is the pipeline's fixed operand, when it has one (power chains
	// multiply M·A each iteration; MCL squares M and leaves A nil).
	A *sparse.CSR
	// Prev is the iterate as it stood when the current iteration began.
	// Convergence steps compare M against it. It aliases the previous
	// iterate, so it is only trustworthy when the iteration's first step
	// replaces M rather than mutating it in place — true for every
	// expansion step.
	Prev *sparse.CSR
	// Iter is the 1-based iteration number.
	Iter int
	// Converged is set by a convergence step to stop the run after the
	// current iteration completes.
	Converged bool
	// Delta is the last convergence measure (chaos for MCL, max
	// elementwise change for fixpoint tests).
	Delta float64
	// Stat accumulates the current iteration's statistics.
	Stat IterationStat

	run *runState
}

// IterationStat records one iteration of a run.
type IterationStat struct {
	Iteration  int     `json:"iteration"`
	NNZ        int     `json:"nnz"`
	Multiplies int     `json:"multiplies"`
	PlanHit    bool    `json:"plan_hit"`
	Flops      int64   `json:"flops"`
	SimSeconds float64 `json:"sim_seconds"`
	Seconds    float64 `json:"seconds"`
	Pruned     int     `json:"pruned"`
	Delta      float64 `json:"delta"`
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Pipeline echoes the pipeline's name.
	Pipeline string `json:"pipeline"`
	// M is the final iterate.
	M *sparse.CSR `json:"-"`
	// Iterations is the number of iterations executed; Converged reports
	// whether a convergence step stopped the run (false means the
	// iteration budget ran out or the pipeline has no convergence step).
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	// PlanHits and PlanMisses split the run's multiplies by whether the
	// cross-iteration plan cache supplied a rebindable preprocessing plan.
	PlanHits   int `json:"plan_hits"`
	PlanMisses int `json:"plan_misses"`
	// Iters details every iteration in order.
	Iters []IterationStat `json:"iters,omitempty"`
}

// runState is the per-run bookkeeping shared by the Runner and the steps
// through State.
type runState struct {
	ctx    context.Context
	runner *Runner
	trace  *trace.Recorder
	cache  *blockreorg.PlanCache // nil when plans are not reusable
	ooc    *ooc.Engine
	hits   int
	misses int
}

// Runner executes pipelines under one set of options. A Runner is
// stateless between runs (each Run gets a fresh plan cache) and may be
// reused; concurrent Runs are safe.
type Runner struct {
	opts Options
}

// NewRunner returns a runner for the given options.
func NewRunner(opts Options) *Runner { return &Runner{opts: opts} }

// invalidf reports a fault in the caller's request. The error wraps
// blockreorg.ErrInvalidOptions so serving layers classify it as a client
// fault with errors.Is, exactly like a malformed Multiply request.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{blockreorg.ErrInvalidOptions}, args...)...)
}

// Run iterates the pipeline from the initial state until convergence, the
// iteration bound, or context cancellation. The context is checked between
// steps and threaded into every multiply, so a run drains promptly after
// cancellation; the partial result is discarded and ctx.Err() returned.
func (r *Runner) Run(ctx context.Context, p *Pipeline, st *State) (*Result, error) {
	if p == nil || len(p.Steps) == 0 {
		return nil, invalidf("pipeline has no steps")
	}
	if st == nil || st.M == nil {
		return nil, invalidf("pipeline %s: no initial iterate", p.Name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	rs := &runState{
		ctx:    ctx,
		runner: r,
		trace:  r.opts.Trace,
	}
	if r.planReusable() {
		rs.cache = blockreorg.NewPlanCache(planCacheSize)
	}
	if r.opts.MemBudget > 0 {
		if r.opts.Algorithm != "" && r.opts.Algorithm != blockreorg.BlockReorganizer {
			return nil, invalidf("out-of-core execution requires the %s algorithm, got %q",
				blockreorg.BlockReorganizer, r.opts.Algorithm)
		}
		eng, err := ooc.New(ooc.Options{
			Budget:      r.opts.MemBudget,
			Dir:         r.opts.SpillDir,
			GPU:         r.opts.GPU,
			Workers:     r.opts.Workers,
			Paranoid:    r.opts.Paranoid,
			NoPlanReuse: r.opts.NoPlanReuse,
			Trace:       r.opts.Trace,
		})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		rs.ooc = eng
	}
	st.run = rs
	res := &Result{Pipeline: p.Name, Iters: make([]IterationStat, 0, maxIter)}
	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st.Iter = it
		st.Prev = st.M
		st.Stat = IterationStat{Iteration: it}
		start := time.Now()
		for _, step := range p.Steps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := step.Apply(st); err != nil {
				return nil, fmt.Errorf("pipeline %s: iteration %d, step %s: %w",
					p.Name, it, step.Name(), err)
			}
		}
		st.Stat.Seconds = time.Since(start).Seconds()
		st.Stat.NNZ = st.M.NNZ()
		st.Stat.Delta = st.Delta
		res.Iterations = it
		res.Iters = append(res.Iters, st.Stat)
		rs.trace.Add(trace.CounterPipelineIterations, 1)
		if st.Converged {
			res.Converged = true
			break
		}
	}
	st.run = nil
	res.M = st.M
	res.PlanHits, res.PlanMisses = rs.hits, rs.misses
	return res, nil
}

// multiplyOptions builds the per-multiply blockreorg options.
func (r *Runner) multiplyOptions() blockreorg.Options {
	return blockreorg.Options{
		Algorithm: r.opts.Algorithm,
		GPU:       r.opts.GPU,
		Workers:   r.opts.Workers,
		Paranoid:  r.opts.Paranoid,
		Trace:     r.opts.Trace,
	}
}

// planReusable reports whether the configured algorithm produces reusable
// plans (only the Block Reorganizer does).
func (r *Runner) planReusable() bool {
	if r.opts.NoPlanReuse {
		return false
	}
	return r.opts.Algorithm == "" || r.opts.Algorithm == blockreorg.BlockReorganizer
}

// multiply runs one expansion product through the run's plan cache
// (blockreorg.PlanCache.Multiply): a structural hit is rebound to the new
// operands and skips the precalculation. Without a cache (plan reuse off,
// or an algorithm that builds no plans) the fingerprints are not taken,
// and a squared operand (MCL's expand) is fingerprinted once.
func (st *State) multiply(a, b *sparse.CSR) (*sparse.CSR, error) {
	rs := st.run
	if rs.ooc != nil {
		return st.multiplyOOC(a, b)
	}
	opts := rs.runner.multiplyOptions()
	var fpA, fpB uint64
	if rs.cache != nil {
		fpA = a.StructureFingerprint()
		fpB = fpA
		if b != a {
			fpB = b.StructureFingerprint()
		}
	}
	res, err := rs.cache.Multiply(rs.ctx, a, b, fpA, fpB, opts)
	if err != nil {
		return nil, err
	}
	if rs.cache != nil {
		if res.PlanReused {
			rs.hits++
			rs.trace.Add(trace.CounterPipelinePlanHits, 1)
		} else {
			rs.misses++
			rs.trace.Add(trace.CounterPipelinePlanMisses, 1)
		}
	}
	st.Stat.Multiplies++
	st.Stat.PlanHit = res.PlanReused
	st.Stat.Flops += res.Flops
	st.Stat.SimSeconds += res.TotalSeconds
	return res.C, nil
}

// multiplyOOC runs one expansion product through the run's out-of-core
// engine. The engine keeps its own tile-level plan cache and reshard
// cache across iterations (the fixed right-hand operand of a power chain
// is resharded once), so the pipeline's hit/miss counters report tile
// plan reuse: an iteration whose tiles all rebound cached plans counts as
// a plan hit.
func (st *State) multiplyOOC(a, b *sparse.CSR) (*sparse.CSR, error) {
	rs := st.run
	if err := rs.ctx.Err(); err != nil {
		return nil, err
	}
	before := rs.ooc.Stats()
	c, err := rs.ooc.Multiply(a, b)
	if err != nil {
		return nil, err
	}
	after := rs.ooc.Stats()
	if rs.runner.planReusable() {
		dh := int(after.PlanHits - before.PlanHits)
		dm := int(after.PlanMisses - before.PlanMisses)
		rs.hits += dh
		rs.misses += dm
		rs.trace.Add(trace.CounterPipelinePlanHits, int64(dh))
		rs.trace.Add(trace.CounterPipelinePlanMisses, int64(dm))
		st.Stat.PlanHit = dm == 0 && dh > 0
	}
	st.Stat.Multiplies++
	st.Stat.Flops += after.Flops - before.Flops
	st.Stat.SimSeconds += after.SimSeconds - before.SimSeconds
	return c, nil
}
