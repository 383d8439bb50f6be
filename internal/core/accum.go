package core

import (
	"github.com/blockreorg/blockreorg/sparse"
)

// AccumPlan is a plan's resolved merge-strategy assignment as the simulated
// device runs it: one accumulator kind per output row, chosen once at
// plan-build time through sparse.SelectAccumulator from the row-wise
// intermediate populations (Limit.RowWork) the symbolic sweeps already
// produced. The gpusim merge kernel prices each row under Rows[i]. The host
// merge does not read it: it resolves sparse.AccumAuto with its own
// measured rule, and the accum_rows_* trace counters count what it merged.
// The assignment depends only on the operand structure and the requested
// kind, so rebound plans (Rebind) keep it.
type AccumPlan struct {
	// Rows holds the per-row resolution of the requested kind (the kind
	// itself unless it was sparse.AccumAuto).
	Rows []sparse.AccumulatorKind
	// Cols is the output dimension the selection was made against; the
	// merge cost model derives the sort strategy's radix pass count from
	// it.
	Cols int
}

// BuildAccumPlan resolves the accumulator strategy for every output row of
// a product with the given per-row intermediate populations and column
// count. It is cheap — one SelectAccumulator call per row — and allocates
// only the Rows array.
func BuildAccumPlan(requested sparse.AccumulatorKind, rowWork []int64, cols int) *AccumPlan {
	ap := &AccumPlan{
		Rows: make([]sparse.AccumulatorKind, len(rowWork)),
		Cols: cols,
	}
	for i, w := range rowWork {
		ap.Rows[i] = sparse.SelectAccumulator(requested, w, cols)
	}
	return ap
}
