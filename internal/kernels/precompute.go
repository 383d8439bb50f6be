package kernels

import (
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
// populations — run as chunked parallel loops with pooled scratch, the
// second chunked by the first's counts.
func PrecomputeOn(a, b *sparse.CSR, ex *parallel.Executor) (*Precomputed, error) {
	if err := checkShapes(a, b); err != nil {
		return nil, err
	}
	return precompute(a, b, ex, nil)
}

// precompute runs the analysis of operands whose shapes are already
// checked. The intermediate sweep, the symbolic sweep and the CSC
// reorientation each record a span on rec (nil disables tracing at zero
// cost).
func precompute(a, b *sparse.CSR, ex *parallel.Executor, rec *trace.Recorder) (*Precomputed, error) {
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
	rowNNZ, err := sparse.SymbolicRowNNZWith(a, b, ex, rowWork)
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

// matches reports whether the cache was built for operands of these shapes.
func (p *Precomputed) matches(a, b *sparse.CSR) bool {
	return p != nil && p.rows == a.Rows && p.mid == a.Cols && p.cols == b.Cols
}

// pre resolves the analysis for (a, b), whose shapes the caller's
// checkInputs already validated: the cached one when compatible, otherwise
// a fresh computation.
func pre(opts Options, a, b *sparse.CSR) (*Precomputed, error) {
	if opts.Pre.matches(a, b) {
		return opts.Pre, nil
	}
	return precompute(a, b, executor(opts), opts.Trace)
}
