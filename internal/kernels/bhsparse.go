package kernels

import (
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// BhSPARSE emulates bhSPARSE (Liu & Vinter, IPDPS 2014): a row-product
// spGEMM that bins output rows by their upper-bound intermediate size and
// runs a specialized kernel per bin — heap merge in shared memory for
// medium rows, a spill path through global memory for rows that exceed
// shared memory. Binning fixes thread-level balance, so it beats plain
// row-product on moderately irregular data, but hub rows still serialize
// in their own blocks and pay the global-merge surcharge, which is why the
// paper still measures it below the baseline on skewed networks (0.55x
// average).
//
// In the accumulator taxonomy (sparse.AccumulatorKind) the bins fix a
// heap/sort-flavoured strategy per size class — the library's published
// design, the closest published relative of the per-row auto selector —
// so Options.Accumulator never changes its timing model.
type BhSPARSE struct{}

// Name implements Algorithm.
func (BhSPARSE) Name() string { return "bhSPARSE" }

// bhSPARSE row bins: [1,32), [32,256), [256, spill), [spill, inf). Rows at
// or above bhSpill do not fit the shared-memory heap and merge through
// global memory.
const bhSpill = 8192

// Multiply implements Algorithm.
func (BhSPARSE) Multiply(a, b *sparse.CSR, opts Options) (*Product, error) {
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
	rowWork, rowNNZ := pc.RowWork, pc.RowNNZ

	rep := &gpusim.Report{Device: opts.Device.Name}
	// Progressive memory allocation: rows that overflow their bin force a
	// host synchronization and buffer re-allocation proportional to the
	// spilled intermediate volume.
	var spillWork int64
	for _, w := range rowWork {
		if w >= bhSpill {
			spillWork += w
		}
	}
	rep.HostSeconds = 100e-6 + float64(spillWork)*1.0e-9
	if err := runKernels(sim, rep, opts.Trace,
		precalcKernel("bh(bin-rows)", a.Rows),
		bhBinKernel("bh(tiny-rows)", rowWork, rowNNZ, 1, 32),
		bhBinKernel("bh(small-rows)", rowWork, rowNNZ, 32, 256),
		bhBinKernel("bh(medium-rows)", rowWork, rowNNZ, 256, bhSpill),
		bhBinKernel("bh(spill-rows)", rowWork, rowNNZ, bhSpill, 1<<62),
	); err != nil {
		return nil, err
	}
	return finishProduct(a, b, opts, rep, pc)
}

// bhBinKernel builds the kernel for rows whose intermediate population
// falls in [lo, hi). Tiny rows pack many-per-block; larger rows get a block
// each with threads matched to the bin; spill rows add global-merge
// traffic.
func bhBinKernel(name string, rowWork []int64, rowNNZ []int, lo, hi int64) *gpusim.Kernel {
	bb := newBlockBuilder(len(rowWork))
	var tinyWork, tinyOut int64
	for i, w := range rowWork {
		if w < lo || w >= hi || w == 0 {
			continue
		}
		outBytes := int64(rowNNZ[i]) * elemBytes
		if hi <= 32 {
			tinyWork += w
			tinyOut += outBytes
			continue
		}
		threads := expansionBlockThreads
		if hi <= 256 {
			threads = 64
		}
		iters := (w + int64(threads) - 1) / int64(threads)
		blk := gpusim.BlockWork{
			Threads:        threads,
			EffThreads:     threads,
			MaxWarpIters:   iters,
			SumWarpIters:   iters * int64(threads/32),
			SumThreadIters: w,
			InstrPerIter:   22, // heap sift on top of the FMA
			// Bin staging buffers add an intermediate round trip.
			ReadBytesPerIter:  rowReadBytes + 16,
			WriteBytesPerIter: float64(outBytes)/float64(w) + 16,
			SharedMem:         16 << 10,
			Segment:           gpusim.NoSegment,
			Label:             "bh-row",
		}
		if lo >= bhSpill {
			// Spill path: products round-trip through global memory and
			// merge against a DRAM-resident buffer over several passes.
			blk.AccumTrafficPerIter = 48
			blk.AccumBytes = int(outBytes) * 2
			blk.AtomicsPerIter = 1
			blk.InstrPerIter = 26
			blk.SharedMem = 32 << 10
			blk.Label = "bh-spill"
		}
		bb.add(blk)
	}
	if tinyWork > 0 {
		perBlock := int64(expansionBlockThreads * 4)
		nblocks := (tinyWork + perBlock - 1) / perBlock
		bb.add(gpusim.BlockWork{
			Count:             int(nblocks),
			Threads:           expansionBlockThreads,
			EffThreads:        expansionBlockThreads,
			MaxWarpIters:      4,
			SumWarpIters:      4 * int64(expansionBlockThreads/32),
			SumThreadIters:    perBlock,
			InstrPerIter:      22,
			ReadBytesPerIter:  rowReadBytes + 16,
			WriteBytesPerIter: float64(tinyOut)/float64(tinyWork) + 16,
			SharedMem:         16 << 10,
			Segment:           gpusim.NoSegment,
			Label:             "bh-tiny",
		})
	}
	return &gpusim.Kernel{Name: name, Phase: gpusim.PhaseExpansion, Blocks: bb.grid()}
}
