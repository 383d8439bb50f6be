package kernels

import (
	"errors"
	"fmt"

	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
)

// Precomputed caches the symbolic analysis shared by every algorithm for
// one (A, B) operand pair: per-row intermediate populations, exact output
// row populations, the flop count, and A in column orientation. Runs that
// compare several algorithms on the same operands (the whole evaluation
// harness) avoid recomputing the same O(flops) sweeps per algorithm.
//
// A Precomputed is immutable after construction and safe to share across
// sequential runs. It must only be passed alongside the operands it was
// built from; Options.Pre is ignored if the shapes disagree.
type Precomputed struct {
	rows, mid, cols int

	RowWork []int64
	RowNNZ  []int
	Flops   int64
	NNZC    int64
	ACSC    *sparse.CSC
}

// PrecomputeOn runs the shared symbolic analysis for C = A×B on an
// explicit executor (nil selects the process-wide default): both O(flops)
// sweeps — the intermediate-population estimate and the symbolic row
// populations — run as chunked parallel loops with pooled scratch.
func PrecomputeOn(a, b *sparse.CSR, ex *parallel.Executor) (*Precomputed, error) {
	if err := checkShapes(a, b); err != nil {
		return nil, err
	}
	return PrecomputeTraced(a, b, ex, nil)
}

// PrecomputeTraced is PrecomputeOn with phase-level tracing: the
// intermediate sweep, the symbolic sweep and the CSC reorientation each
// record a span (nil rec disables tracing at zero cost).
func PrecomputeTraced(a, b *sparse.CSR, ex *parallel.Executor, rec *trace.Recorder) (*Precomputed, error) {
	if err := checkShapes(a, b); err != nil {
		return nil, err
	}
	workStart := rec.Now()
	rowWork, err := sparse.IntermediateRowNNZOn(a, b, ex)
	if err != nil {
		return nil, err
	}
	var flops int64
	for _, w := range rowWork {
		flops += w
	}
	rec.Observe(trace.PhaseIntermediate, flops, rec.Since(workStart))

	symStart := rec.Now()
	rowNNZ, err := sparse.SymbolicRowNNZOn(a, b, ex)
	if err != nil {
		return nil, err
	}
	var nnzc int64
	for _, n := range rowNNZ {
		nnzc += int64(n)
	}
	rec.Observe(trace.PhaseSymbolic, nnzc, rec.Since(symStart))

	endConv := rec.SpanItems(trace.PhaseConvert, int64(a.NNZ()))
	acsc := a.ToCSC()
	endConv()
	return &Precomputed{
		rows: a.Rows, mid: a.Cols, cols: b.Cols,
		RowWork: rowWork,
		RowNNZ:  rowNNZ,
		Flops:   flops,
		NNZC:    nnzc,
		ACSC:    acsc,
	}, nil
}

// Rebind returns a Precomputed for new operands that share the sparsity
// structure of the ones this analysis was built from, reusing the symbolic
// arrays (which are structure-only) and re-deriving only the value-bound
// column orientation of A. acsc may supply an already-converted A (e.g.
// the one a rebound core.Plan carries); nil converts here. The structural
// match itself is the caller's contract — normally discharged by matching
// sparse.StructureFingerprint digests — and only the shapes are re-checked.
func (p *Precomputed) Rebind(a, b *sparse.CSR, acsc *sparse.CSC) (*Precomputed, error) {
	if p == nil {
		return nil, errors.New("kernels: rebind of nil analysis")
	}
	if err := checkShapes(a, b); err != nil {
		return nil, err
	}
	if p.rows != a.Rows || p.mid != a.Cols || p.cols != b.Cols {
		return nil, fmt.Errorf("kernels: cannot rebind analysis of %dx%dx%d operands to %dx%dx%d",
			p.rows, p.mid, p.cols, a.Rows, a.Cols, b.Cols)
	}
	if acsc == nil {
		acsc = a.ToCSC()
	}
	return &Precomputed{
		rows: p.rows, mid: p.mid, cols: p.cols,
		RowWork: p.RowWork,
		RowNNZ:  p.RowNNZ,
		Flops:   p.Flops,
		NNZC:    p.NNZC,
		ACSC:    acsc,
	}, nil
}

// matches reports whether the cache was built for operands of these shapes.
func (p *Precomputed) matches(a, b *sparse.CSR) bool {
	return p != nil && p.rows == a.Rows && p.mid == a.Cols && p.cols == b.Cols
}

// pre resolves the analysis for (a, b): the cached one when compatible,
// otherwise a fresh computation.
func pre(opts Options, a, b *sparse.CSR) (*Precomputed, error) {
	if opts.Pre.matches(a, b) {
		return opts.Pre, nil
	}
	return PrecomputeTraced(a, b, executor(opts), opts.Trace)
}
