package kernels

import (
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// RowProduct is the paper's baseline spGEMM: row-product (Gustavson)
// expansion with one thread per output row, followed by the dense
// accumulator merge. Its weakness is thread-level load imbalance — lanes of
// a warp own rows of wildly different workloads, so the warp runs at the
// pace of its heaviest lane.
type RowProduct struct{}

// Name implements Algorithm.
func (RowProduct) Name() string { return "row-product" }

// Multiply implements Algorithm.
func (RowProduct) Multiply(a, b *sparse.CSR, opts Options) (*Product, error) {
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
		precalcKernel("precalc(row-nnz)", a.Rows),
		rowExpansionKernel(a, b),
		mergeKernel("merge(gustavson)", pc.RowWork, pc.RowNNZ, mergeReadRowForm, nil, 0,
			opts.Accumulator, b.Cols),
	); err != nil {
		return nil, err
	}
	return finishProduct(a, b, opts, rep, pc)
}

// rowExpansionKernel builds the row-product expansion grid: one thread per
// stored element of A, each expanding its element against the matching B
// row. Blocks cover 256 consecutive A elements; a warp's iteration count is
// set by the heaviest lane — the thread-level load imbalance the paper
// attributes to the row-product scheme (lanes whose B rows are hub rows
// stall their whole warp).
func rowExpansionKernel(a, b *sparse.CSR) *gpusim.Kernel {
	threads := expansionBlockThreads
	nnz := a.NNZ()
	bb := newBlockBuilder(nnz / threads)
	// elemWork[e] is the expansion workload of A's e-th stored element in
	// row-major order: the population of the B row its column selects.
	elemWork := make([]int64, 0, nnz)
	for i := 0; i < a.Rows; i++ {
		idx, _ := a.Row(i)
		for _, k := range idx {
			elemWork = append(elemWork, int64(b.RowNNZ(k)))
		}
	}
	for e0 := 0; e0 < nnz; e0 += threads {
		var maxWarp, sumWarp, sumThread int64
		effWarps := 0
		for w := 0; w < threads/32; w++ {
			var warpMax int64
			for lane := 0; lane < 32; lane++ {
				e := e0 + w*32 + lane
				if e >= nnz {
					break
				}
				work := elemWork[e]
				sumThread += work
				if work > warpMax {
					warpMax = work
				}
			}
			sumWarp += warpMax
			if warpMax > maxWarp {
				maxWarp = warpMax
			}
			if warpMax > 0 {
				effWarps++
			}
		}
		if sumThread == 0 {
			continue
		}
		// Average busy lanes per warp iteration — the effective thread
		// count under lock-step execution.
		eff := int(float64(sumThread) / float64(sumWarp) * float64(effWarps))
		if eff < 1 {
			eff = 1
		}
		if eff > threads {
			eff = threads
		}
		bb.add(gpusim.BlockWork{
			Threads:           threads,
			EffThreads:        eff,
			MaxWarpIters:      maxWarp,
			SumWarpIters:      sumWarp,
			SumThreadIters:    sumThread,
			ReadBytesPerIter:  rowReadBytes,
			WriteBytesPerIter: productWrite,
			Segment:           gpusim.NoSegment,
			Label:             "row-expand",
		})
	}
	return &gpusim.Kernel{Name: "expand(row-product)", Phase: gpusim.PhaseExpansion, Blocks: bb.grid()}
}
