package kernels

import (
	"errors"
	"fmt"
	"sort"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
)

// Options configures one multiplication run.
type Options struct {
	// Device is the simulated GPU. Required for GPU algorithms; ignored
	// by MKL.
	Device gpusim.Config
	// Core tunes the Block Reorganizer pass (Reorganizer only).
	Core core.Params
	// SkipValues suppresses the numeric product: only the symbolic
	// structure is computed and Product.C stays nil. Used by large
	// benchmark sweeps where only timing matters.
	SkipValues bool
	// Paranoid enables the deep sanitizer layer: operands pass CheckDeep,
	// the Reorganizer's plan passes core.VerifyPlanOnDevice, and the
	// simulator deep-checks every grid. The BLOCKREORG_PARANOID environment
	// variable turns it on globally (see gpusim.ParanoidEnv).
	Paranoid bool
	// CPU overrides the CPU model used by MKL; zero value selects the
	// paper's system 1 host.
	CPU CPUConfig
	// Pre optionally supplies the shared symbolic analysis of (A, B),
	// letting callers that run several algorithms on the same operands
	// (Compare, the benchmark harness) pay for it once. Ignored when it
	// does not match the operands, and by a Reorganizer run driven by a
	// bound Plan, which carries its own analysis.
	Pre *Precomputed
	// Plan optionally supplies a previously built Block Reorganizer plan
	// bound to exactly these operands (core.Plan.Rebind) — the serving
	// layer's plan-cache fast path. When it is bound, the Reorganizer
	// skips plan construction and the precalculation kernel; the plan's
	// embedded Params govern the run and Core is ignored. Other
	// algorithms ignore it, as does the Reorganizer when the plan is not
	// bound to the operands.
	Plan *core.Plan
	// Exec selects the host-side executor the numeric paths run on. Nil
	// selects the process-wide default (parallel.Default), which bounds
	// loop goroutines at GOMAXPROCS across all concurrent runs; a
	// one-worker executor forces sequential execution. Results do not
	// depend on the choice — every parallel path is bit-identical to its
	// sequential reference.
	Exec *parallel.Executor
	// Trace optionally records phase-level spans and workload counters
	// for the run (see internal/trace). Nil disables tracing at zero
	// cost; results never depend on it.
	Trace *trace.Recorder
	// Accumulator selects the per-row merge strategy of the numeric
	// product and of the Gustavson-merge cost models (row-product,
	// outer-product, and the Reorganizer — where Core.Accumulator, when
	// set, takes precedence so plans stay self-describing). The zero
	// value, sparse.AccumAuto, picks per row from the symbolic upper
	// bounds. The fixed-strategy libraries (cuSPARSE, CUSP, bhSPARSE,
	// MKL) keep their published merge models regardless — the knob never
	// changes what those baselines are — but their numeric host product
	// does use it, since the result is bit-identical either way.
	Accumulator sparse.AccumulatorKind
}

// executor resolves the run's host-side executor.
func executor(opts Options) *parallel.Executor {
	if opts.Exec != nil {
		return opts.Exec
	}
	return parallel.Default()
}

// Product is the outcome of one multiplication.
type Product struct {
	// C is the product matrix, nil when Options.SkipValues is set.
	C *sparse.CSR
	// Report carries the simulated timing of every kernel plus host time.
	Report *gpusim.Report
	// Flops is the multiply-add count nnz(Ĉ); NNZC is nnz(C).
	Flops int64
	NNZC  int64
	// PlanStats is populated by the Reorganizer (classification counts).
	PlanStats *core.PlanStats
	// Plan is the full Block Reorganizer plan the run used or built
	// (Reorganizer only). Callers may cache it and Rebind it to later
	// operands with the same sparsity structure.
	Plan *core.Plan
	// PlanReused reports that Plan was supplied by the caller, so the
	// precalculation and classification work was skipped.
	PlanReused bool
}

// GFLOPS returns the paper's throughput metric for this run.
func (p *Product) GFLOPS() float64 { return p.Report.GFLOPS(p.Flops) }

// Algorithm is one spGEMM implementation.
type Algorithm interface {
	// Name returns the display name used across figures and tables.
	Name() string
	// Multiply computes C = A×B under the given options.
	Multiply(a, b *sparse.CSR, opts Options) (*Product, error)
}

// ErrUnknownAlgorithm is returned by ByName for unregistered names.
var ErrUnknownAlgorithm = errors.New("kernels: unknown algorithm")

// All returns the algorithms in the paper's presentation order
// (row-product, outer-product, cuSPARSE, CUSP, bhSPARSE, MKL, Block
// Reorganizer).
func All() []Algorithm {
	return []Algorithm{
		RowProduct{},
		OuterProduct{},
		CuSPARSE{},
		CUSP{},
		BhSPARSE{},
		MKL{},
		Reorganizer{},
	}
}

// ByName resolves an algorithm by its display name (case-sensitive).
func ByName(name string) (Algorithm, error) {
	for _, alg := range All() {
		if alg.Name() == name {
			return alg, nil
		}
	}
	names := make([]string, 0, 7)
	for _, alg := range All() {
		names = append(names, alg.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownAlgorithm, name, names)
}

// checkShapes validates operand compatibility once, up front.
func checkShapes(a, b *sparse.CSR) error {
	if a == nil || b == nil {
		return errors.New("kernels: nil operand")
	}
	if a.Cols != b.Rows {
		return fmt.Errorf("kernels: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// checkInputs is the validation gate every Algorithm.Multiply runs first
// (enforced by the blockreorg-vet kernelvalidate rule): shape compatibility
// always, plus the O(nnz) CheckDeep sanitizers when Paranoid mode is on.
func checkInputs(a, b *sparse.CSR, opts Options) error {
	if err := checkShapes(a, b); err != nil {
		return err
	}
	if !paranoid(opts) {
		return nil
	}
	if err := a.CheckDeep(); err != nil {
		return fmt.Errorf("kernels: operand A: %w", err)
	}
	if err := b.CheckDeep(); err != nil {
		return fmt.Errorf("kernels: operand B: %w", err)
	}
	return nil
}

// paranoid reports whether the deep sanitizer layer is enabled for this
// run, by option or by the BLOCKREORG_PARANOID environment variable.
func paranoid(opts Options) bool {
	return opts.Paranoid || gpusim.ParanoidEnv()
}

// simFor builds the simulator for a run, forwarding Paranoid mode so the
// device deep-checks every grid it executes.
func simFor(opts Options) (*gpusim.Simulator, error) {
	cfg := opts.Device
	if paranoid(opts) {
		cfg.Paranoid = true
	}
	return gpusim.New(cfg)
}

// finishProduct fills the shared Product fields: the numeric result (unless
// skipped) and the symbolic counts from the shared analysis.
func finishProduct(a, b *sparse.CSR, opts Options, rep *gpusim.Report, pc *Precomputed) (*Product, error) {
	p := &Product{Report: rep, Flops: pc.Flops, NNZC: pc.NNZC}
	if opts.SkipValues {
		return p, nil
	}
	// The shared analysis already holds the exact symbolic populations, so
	// the numeric engine skips its own symbolic sweep.
	c, err := sparse.MultiplyConfigured(a, b, executor(opts), opts.Trace,
		sparse.MulConfig{Accum: opts.Accumulator, RowNNZ: pc.RowNNZ})
	if err != nil {
		return nil, err
	}
	p.C = c
	p.NNZC = int64(c.NNZ())
	return p, nil
}

// runKernels drives every kernel through the simulator, appending the
// results to rep and recording one simulate-phase span per kernel (items =
// blocks launched) when tracing is on.
func runKernels(sim *gpusim.Simulator, rep *gpusim.Report, rec *trace.Recorder, ks ...*gpusim.Kernel) error {
	for _, k := range ks {
		done := rec.SpanItems(trace.PhaseSimulate, int64(len(k.Blocks)))
		res, err := sim.Run(k)
		done()
		if err != nil {
			return err
		}
		rep.Kernels = append(rep.Kernels, res)
	}
	return nil
}
