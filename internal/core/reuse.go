package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/blockreorg/blockreorg/sparse"
)

// Plan reuse: the whole Block Reorganizer preprocessing pipeline —
// precalculation, classification, B-Splitting, B-Gathering and B-Limiting —
// depends only on the sparsity structure of the operands, never on their
// numeric values. A long-running service multiplying against the same large
// sparse network can therefore build the plan once and reuse it across
// requests, paying only for value rebinding. Rebind is that entry point: it
// produces a plan bound to fresh operand objects (possibly carrying new
// values over the same pattern), rebuilding exactly the two value-carrying
// artifacts — A in column orientation and the temporary split matrix A′ —
// in O(nnz(A)) instead of re-running the O(flops) symbolic sweeps and the
// classification.

// BoundTo reports whether the plan was built for (or rebound to) exactly
// these operand objects. Kernels use it to decide whether a caller-supplied
// plan may drive this multiplication.
func (p *Plan) BoundTo(a, b *sparse.CSR) bool {
	return p != nil && p.A == a && p.B == b
}

// Rebind returns a copy of the plan bound to new operands that carry the
// same sparsity structure as the ones it was built for. The classification,
// split layout, gather packing, limit set and product structure are shared
// with the original (they are immutable after construction and
// structure-only); the column orientation of A and the split matrix A′ are
// rebuilt from the new values.
//
// Rebind compares the whole pattern — dimensions, row offsets and column
// indices of both operands — with the operands the plan is bound to, in
// O(nnz(A)+nnz(B)), and rejects operands that differ: a plan carrying the
// product's column indices (CIdx) would otherwise fill a wrong structure.
// The operands the plan is bound to must therefore keep their structure.
//
// The original plan is not modified; both plans may execute concurrently.
func (p *Plan) Rebind(a, b *sparse.CSR) (*Plan, error) {
	if p == nil {
		return nil, errors.New("core: rebind of nil plan")
	}
	if a == nil || b == nil {
		return nil, errors.New("core: nil operand")
	}
	if p.BoundTo(a, b) {
		return p, nil
	}
	if a.Rows != p.A.Rows || a.Cols != p.A.Cols || b.Rows != p.B.Rows || b.Cols != p.B.Cols {
		return nil, fmt.Errorf("core: cannot rebind plan built for %dx%d × %dx%d to %dx%d × %dx%d",
			p.A.Rows, p.A.Cols, p.B.Rows, p.B.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if i := patternDiff(a, p.A); i >= 0 {
		return nil, fmt.Errorf("core: rebind operand A row %d differs from the plan's pattern", i)
	}
	if i := patternDiff(b, p.B); i >= 0 {
		return nil, fmt.Errorf("core: rebind operand B row %d differs from the plan's pattern", i)
	}
	acsc := a.ToCSC()
	q := *p
	q.A, q.ACSC, q.B = a, acsc, b
	// A′ holds copies of the dominator column values; rebuild it so the
	// rebound plan multiplies with the new operand's numbers. The chunk
	// boundaries are safe: the pattern, and so every column population,
	// was just checked.
	split := *p.Split
	split.buildAPrime(acsc)
	q.Split = &split
	return &q, nil
}

// patternDiff returns the first row whose column indices differ between x
// and y, which have the same shape, or -1 when their patterns are equal.
func patternDiff(x, y *sparse.CSR) int {
	if x == y || (slices.Equal(x.Ptr, y.Ptr) && slices.Equal(x.Idx, y.Idx)) {
		return -1
	}
	for i := 0; i < x.Rows; i++ {
		xi, _ := x.Row(i)
		yi, _ := y.Row(i)
		if !slices.Equal(xi, yi) {
			return i
		}
	}
	return x.Rows
}
