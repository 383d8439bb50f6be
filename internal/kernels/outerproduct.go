package kernels

import (
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// OuterProduct is the untransformed outer-product (column-by-row) baseline:
// one thread block per nonzero pair (a_{*k}, b_{k*}). Threads within a
// block are perfectly balanced — every thread performs nnz(a_{*k})
// iterations — but the blocks themselves range from a handful of products
// to hundreds of millions, which is the SM-level imbalance the Block
// Reorganizer attacks.
type OuterProduct struct{}

// Name implements Algorithm.
func (OuterProduct) Name() string { return "outer-product" }

// Multiply implements Algorithm.
func (OuterProduct) Multiply(a, b *sparse.CSR, opts Options) (*Product, error) {
	if err := checkInputs(a, b, opts); err != nil {
		return nil, err
	}
	sim, err := simFor(opts)
	if err != nil {
		return nil, err
	}
	pc, err := pre(opts, a, b)
	if err != nil {
		return nil, err
	}

	rep := &gpusim.Report{Device: opts.Device.Name}
	if err := runKernels(sim, rep, opts.Trace,
		precalcKernel("precalc(block-nnz)", pc.ACSC.Cols),
		outerExpansionKernel(pc.ACSC, b),
		mergeKernel("merge(gustavson)", pc.RowWork, pc.RowNNZ, mergeReadMatrixForm, nil, 0,
			opts.Accumulator, b.Cols),
	); err != nil {
		return nil, err
	}
	return finishProduct(a, b, opts, rep, pc)
}

// outerExpansionKernel builds one block per active pair, in pair order.
func outerExpansionKernel(acsc *sparse.CSC, b *sparse.CSR) *gpusim.Kernel {
	bb := newBlockBuilder(acsc.Cols)
	for k := 0; k < acsc.Cols; k++ {
		colNNZ := acsc.ColNNZ(k)
		rowNNZ := b.RowNNZ(k)
		if colNNZ == 0 || rowNNZ == 0 {
			continue
		}
		bb.add(expansionPairBlock(colNNZ, rowNNZ, "outer-pair"))
	}
	return &gpusim.Kernel{Name: "expand(outer-product)", Phase: gpusim.PhaseExpansion, Blocks: bb.grid()}
}
