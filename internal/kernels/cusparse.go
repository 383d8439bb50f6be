package kernels

import (
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// CuSPARSE emulates the csrgemm path of NVIDIA cuSPARSE v2: a two-phase
// (symbolic then numeric) row-product with one warp per output row and
// hash-table accumulation. Thread-level balance within a row is good, but
// a hub row serializes inside its single warp, so heavily skewed matrices
// collapse — the behaviour the paper measures (0.29x of the row-product
// baseline on average, best-in-class only on small regular inputs).
//
// In the accumulator taxonomy (sparse.AccumulatorKind) this is a fixed
// hash strategy for every row — the library's published design, so
// Options.Accumulator never changes its timing model; its own smem/global
// split below plays the role the per-row selector plays elsewhere.
type CuSPARSE struct{}

// hashSmemProducts is the largest per-row product count whose hash table
// still fits the block's shared memory; longer rows spill to global memory.
const hashSmemProducts = 2048

// Name implements Algorithm.
func (CuSPARSE) Name() string { return "cuSPARSE" }

// Multiply implements Algorithm.
func (CuSPARSE) Multiply(a, b *sparse.CSR, opts Options) (*Product, error) {
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
		warpPerRowKernel("csrgemm(symbolic)", pc.RowWork, pc.RowNNZ, 0.2),
		warpPerRowKernel("csrgemm(numeric)", pc.RowWork, pc.RowNNZ, 1),
	); err != nil {
		return nil, err
	}
	return finishProduct(a, b, opts, rep, pc)
}

// warpPerRowKernel assigns one warp to each output row; blocks hold 8 rows.
// scale discounts the symbolic pass (index-only traffic). Hash-table
// accumulation costs extra instructions per product; results merge in
// shared memory, so only final rows are written back.
func warpPerRowKernel(name string, rowWork []int64, rowNNZ []int, scale float64) *gpusim.Kernel {
	threads := expansionBlockThreads
	rowsPerBlock := threads / 32
	bb := newBlockBuilder(len(rowWork) / rowsPerBlock)
	for r0 := 0; r0 < len(rowWork); r0 += rowsPerBlock {
		var maxWarp, sumWarp, sumThread, outBytes int64
		effWarps := 0
		for w := 0; w < rowsPerBlock; w++ {
			i := r0 + w
			if i >= len(rowWork) {
				break
			}
			work := rowWork[i]
			if work == 0 {
				continue
			}
			iters := (work + 31) / 32
			sumWarp += iters
			sumThread += work
			outBytes += int64(rowNNZ[i]) * elemBytes
			if iters > maxWarp {
				maxWarp = iters
			}
			effWarps++
		}
		if sumThread == 0 {
			continue
		}
		eff := int(float64(sumThread) / float64(sumWarp))
		if eff < 1 {
			eff = 1
		}
		if eff > 32 {
			eff = 32
		}
		// The numeric pass expands each row's products into a global
		// workspace, sorts the segment and compacts it — all streaming
		// DRAM traffic with no cache residency to exploit. Long rows
		// additionally pay the O(w log w) segment sort, which is the
		// library's skew pathology.
		sortFactor := 1.0
		if w := maxWarp * 32; w > hashSmemProducts {
			for s := int64(hashSmemProducts); s < w; s *= 2 {
				sortFactor += 0.6
			}
		}
		blk := gpusim.BlockWork{
			Threads:           threads,
			EffThreads:        eff * effWarps,
			MaxWarpIters:      maxWarp,
			SumWarpIters:      sumWarp,
			SumThreadIters:    sumThread,
			InstrPerIter:      18,
			ReadBytesPerIter:  48 * scale * sortFactor,
			WriteBytesPerIter: (30*sortFactor + float64(outBytes)/float64(sumThread)) * scale,
			SharedMem:         16 << 10, // per-block staging
			Segment:           gpusim.NoSegment,
			Label:             "warp-per-row",
		}
		if sortFactor > 1 {
			blk.Label = "warp-per-row-long"
		}
		bb.add(blk)
	}
	return &gpusim.Kernel{Name: name, Phase: gpusim.PhaseExpansion, Blocks: bb.grid()}
}
