package kernels

import (
	"math/bits"

	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// Shared cost constants. A sparse element is a (float64 value, int32 index)
// pair on the device.
const (
	elemBytes = 12
	// expansion traffic per effective-thread iteration: outer-product
	// broadcasts the column element across the warp (amortized read),
	// row-product gathers from scattered B rows (uncoalesced read).
	outerReadBytes = 1.5
	rowReadBytes   = 12
	productWrite   = elemBytes
	// merge read cost per intermediate element: row-form intermediates
	// (row-product) stream linearly; matrix-form intermediates
	// (outer-product) pay extra column address indexing, the paper's
	// stated merge disadvantage of the outer-product scheme.
	mergeReadRowForm    = 12
	mergeReadMatrixForm = 14
	// mergeAccumTraffic is the read-modify-write traffic per product
	// against the dense accumulator (8B load + 8B store).
	mergeAccumTraffic = 16
	// mergeBaseSmem is the merge kernel's static shared memory per block.
	mergeBaseSmem = 2048
	// mergeItersPerThread is the grid-stride depth of merge threads.
	mergeItersPerThread = 16
	// accumSector is the cache footprint of one accumulator update: the
	// dense accumulator spans the full output dimension, so each touched
	// entry occupies its own 32-byte sector.
	accumSector = 32
	// accumWindow bounds a merge block's *active* accumulator working set:
	// rows are processed in segments, so only the recent sectors compete
	// for L2 residency at any instant.
	accumWindow = 32 << 10
	// heavyWork is the per-block workload above which expansion blocks are
	// kept as individual profiles instead of deduplicated classes.
	heavyWork = 8192
	// longRow is the intermediate population above which a merge row gets
	// its own thread block.
	longRow = 256
	// Hash-accumulator merge pricing: each product pays an expected probe
	// plus table update instead of the dense RMW. At load factor ≤ 1/2 the
	// expected linear-probe chain is short, but a probe touches a key and
	// a value lane (not adjacent like the dense accumulator's), so the
	// per-product traffic is higher while the *resident* working set —
	// the power-of-two table — is proportional to the row, not the output
	// dimension. That trade is the whole point of the strategy.
	hashProbeTraffic = 20
	// hashInstrPerIter raises the per-iteration instruction estimate over
	// the device default (10): multiply-shift hashing plus the probe loop.
	hashInstrPerIter = 14
	// hashSlotBytes is the device footprint of one table slot (8B key
	// lane + 8B value lane, separate arrays as the host merger lays out).
	hashSlotBytes = 16
	// Sort-accumulator merge pricing: the row is sorted by LSD radix
	// passes over the column keys (8 bits per pass, so
	// ceil(log2(cols)/8) passes) and then compacted in one streaming
	// sweep. Each pass reads and writes every (key, value) pair —
	// sortPassTraffic bytes per product per pass — but the passes are
	// fully streaming: no atomics and no resident accumulator competing
	// for L2, which is why tiny rows win here.
	sortPassTraffic = 24
	// sortRadixBits is the digit width of one radix pass.
	sortRadixBits = 8
	// expansionBlockThreads is the configured thread-block size of
	// expansion kernels (paper's fixed launch size).
	expansionBlockThreads = 256
)

// blockBuilder assembles a grid, deduplicating light blocks into counted
// classes while keeping heavy blocks as individual profiles in encounter
// order (heavy blocks are what load balance hinges on). A class is found
// without hashing its profile: the light classes are chained by their
// work (at most heavyWork), and a block is compared only with the classes
// of its chain.
type blockBuilder struct {
	blocks []gpusim.BlockWork
	// byWork[w & (len(byWork)-1)] is one more than the index of the last
	// light class whose work w falls in that chain (0 for none), and
	// next[i] one more than the index of the class before class i in its
	// chain. byWork has chains entries, made on the first light block.
	byWork []int32
	next   []int32
	chains int
}

// newBlockBuilder returns a builder for a grid of about n blocks, which
// sizes its class chains.
func newBlockBuilder(n int) *blockBuilder {
	chains := 1
	for chains < n && chains < heavyWork {
		chains <<= 1
	}
	return &blockBuilder{chains: chains}
}

// add appends block b, merging it into an existing class when it is light,
// has no segment identity, and matches that class in everything but Count.
func (bb *blockBuilder) add(b gpusim.BlockWork) {
	if b.Count == 0 {
		b.Count = 1
	}
	if b.SumThreadIters > heavyWork || b.Segment != gpusim.NoSegment {
		bb.blocks = append(bb.blocks, b)
		bb.next = append(bb.next, 0)
		return
	}
	if bb.byWork == nil {
		bb.byWork = make([]int32, bb.chains)
	}
	head := &bb.byWork[b.SumThreadIters&int64(len(bb.byWork)-1)]
	for c := *head; c > 0; c = bb.next[c-1] {
		if class := &bb.blocks[c-1]; sameProfile(class, &b) {
			class.Count += b.Count
			return
		}
	}
	bb.blocks = append(bb.blocks, b)
	bb.next = append(bb.next, *head)
	*head = int32(len(bb.blocks))
}

// sameProfile reports whether x and y differ in nothing but Count, so the
// simulator prices them identically.
func sameProfile(x, y *gpusim.BlockWork) bool {
	c := *y
	c.Count = x.Count
	return c == *x
}

// grid returns the assembled block classes.
func (bb *blockBuilder) grid() []gpusim.BlockWork { return bb.blocks }

// expansionPairBlock builds the outer-product expansion profile for a pair
// chunk: colNNZ column elements (the per-thread iteration count) against
// rowNNZ row elements (the effective thread count), under a fixed block
// size. Used for normal pairs (full column) and split sub-blocks (chunk).
func expansionPairBlock(colNNZ, rowNNZ int, label string) gpusim.BlockWork {
	threads := expansionBlockThreads
	eff := rowNNZ
	if eff > threads {
		eff = threads
	}
	passes := int64((rowNNZ + threads - 1) / threads)
	iters := int64(colNNZ) * passes
	effWarps := int64((eff + 31) / 32)
	return gpusim.BlockWork{
		Threads:           threads,
		EffThreads:        eff,
		MaxWarpIters:      iters,
		SumWarpIters:      iters * effWarps,
		SumThreadIters:    int64(colNNZ) * int64(rowNNZ),
		ReadBytesPerIter:  outerReadBytes,
		WriteBytesPerIter: productWrite,
		Segment:           gpusim.NoSegment,
		Label:             label,
	}
}

// sortPasses is the LSD radix pass count over column keys bounded by cols.
func sortPasses(cols int) int {
	if cols < 2 {
		return 1
	}
	return (bits.Len(uint(cols-1)) + sortRadixBits - 1) / sortRadixBits
}

// mergeLabels names the merge block classes, one row per block shape and
// one column per strategy (dense, hash, sort), so pricing a row builds no
// string.
var mergeLabels = struct{ long, limited, small [3]string }{
	long:    [3]string{"merge-long", "merge-long-hash", "merge-long-sort"},
	limited: [3]string{"merge-limited", "merge-limited-hash", "merge-limited-sort"},
	small:   [3]string{"merge-small", "merge-small-hash", "merge-small-sort"},
}

// priceAccum rewrites a dense-priced merge block for the row's assigned
// accumulator strategy and labels it from labels. Dense is the identity;
// hash swaps the RMW traffic for probe traffic and shrinks the resident
// working set to the power-of-two table; sort folds the radix passes into
// the streaming read and drops the accumulator entirely (no atomics, no
// resident set).
func priceAccum(blk gpusim.BlockWork, kind sparse.AccumulatorKind, labels *[3]string, tableBytes int64, passes int) gpusim.BlockWork {
	blk.Label = labels[0]
	switch kind {
	case sparse.AccumHash:
		blk.AccumTrafficPerIter = hashProbeTraffic
		blk.InstrPerIter = hashInstrPerIter
		if tableBytes > accumWindow {
			tableBytes = accumWindow
		}
		blk.AccumBytes = int(tableBytes)
		blk.Label = labels[1]
	case sparse.AccumSort:
		blk.ReadBytesPerIter += float64(passes) * sortPassTraffic
		blk.AccumTrafficPerIter = 0
		blk.AtomicsPerIter = 0
		blk.AccumBytes = 0
		blk.Label = labels[2]
	}
	return blk
}

// mergeKernel builds the Gustavson merge with each row priced under the
// strategy kind resolves to for it (sparse.SelectAccumulator against the
// output dimension cols): one block per long intermediate row, packed
// grid-stride blocks (one aggregate class per strategy) for the rest.
// readBytes selects the row-form or matrix-form intermediate cost. limited
// rows (ascending, may be nil) receive extraSmem bytes of additional
// shared memory — the B-Limiting mechanism.
func mergeKernel(name string, rowWork []int64, rowNNZ []int, readBytes float64, limited []int, extraSmem int, kind sparse.AccumulatorKind, cols int) *gpusim.Kernel {
	passes := sortPasses(cols)
	bb := newBlockBuilder(len(rowWork))
	// Small rows aggregate into one grid-stride class per strategy: the
	// strategies differ in per-product traffic, so folding them together
	// would blur exactly the cost difference the selector exploits.
	type smallBucket struct {
		work, out, table int64
	}
	var small [3]smallBucket // dense, hash, sort
	for i, w := range rowWork {
		isLimited := len(limited) > 0 && limited[0] == i
		if isLimited {
			limited = limited[1:]
		}
		if w == 0 {
			continue
		}
		rowKind := sparse.SelectAccumulator(kind, w, cols)
		outBytes := int64(rowNNZ[i]) * elemBytes
		if w < longRow {
			sb := &small[0]
			switch rowKind {
			case sparse.AccumHash:
				sb = &small[1]
				sb.table += int64(sparse.HashTableSlots(w)) * hashSlotBytes
			case sparse.AccumSort:
				sb = &small[2]
			}
			sb.work += w
			sb.out += outBytes
			continue
		}
		threads := expansionBlockThreads
		iters := (w + int64(threads) - 1) / int64(threads)
		smem := mergeBaseSmem
		labels := &mergeLabels.long
		if isLimited {
			smem += extraSmem
			labels = &mergeLabels.limited
		}
		accumWS := int64(rowNNZ[i]) * accumSector
		if accumWS > accumWindow {
			accumWS = accumWindow
		}
		bb.add(priceAccum(gpusim.BlockWork{
			Threads:             threads,
			EffThreads:          threads,
			MaxWarpIters:        iters,
			SumWarpIters:        iters * int64(threads/32),
			SumThreadIters:      w,
			ReadBytesPerIter:    readBytes,
			WriteBytesPerIter:   float64(outBytes) / float64(w),
			AccumTrafficPerIter: mergeAccumTraffic,
			AtomicsPerIter:      1,
			SharedMem:           smem,
			Segment:             gpusim.NoSegment,
			AccumBytes:          int(accumWS),
		}, rowKind, labels, int64(sparse.HashTableSlots(w))*hashSlotBytes, passes))
	}
	for s, sb := range small {
		if sb.work == 0 {
			continue
		}
		smallKind := [3]sparse.AccumulatorKind{sparse.AccumDense, sparse.AccumHash, sparse.AccumSort}[s]
		perBlock := int64(expansionBlockThreads * mergeItersPerThread)
		nblocks := (sb.work + perBlock - 1) / perBlock
		smallWS := sb.out / elemBytes * accumSector / max64(nblocks, 1)
		if smallWS > accumWindow {
			smallWS = accumWindow
		}
		bb.add(priceAccum(gpusim.BlockWork{
			Count:               int(nblocks),
			Threads:             expansionBlockThreads,
			EffThreads:          expansionBlockThreads,
			MaxWarpIters:        mergeItersPerThread,
			SumWarpIters:        mergeItersPerThread * int64(expansionBlockThreads/32),
			SumThreadIters:      perBlock,
			ReadBytesPerIter:    readBytes,
			WriteBytesPerIter:   float64(sb.out) / float64(sb.work),
			AccumTrafficPerIter: mergeAccumTraffic,
			AtomicsPerIter:      1,
			SharedMem:           mergeBaseSmem,
			Segment:             gpusim.NoSegment,
			AccumBytes:          int(smallWS),
		}, smallKind, &mergeLabels.small, sb.table/max64(nblocks, 1), passes))
	}
	return &gpusim.Kernel{Name: name, Phase: gpusim.PhaseMerge, Blocks: bb.grid()}
}

// uniformKernel builds a perfectly balanced grid covering `elements` units
// of work at the given per-element traffic — the shape of ESC expansion,
// sort passes and compaction sweeps.
func uniformKernel(name string, phase gpusim.Phase, elements int64, readBytes, writeBytes float64, label string) *gpusim.Kernel {
	if elements <= 0 {
		return &gpusim.Kernel{Name: name, Phase: phase}
	}
	perBlock := int64(expansionBlockThreads * mergeItersPerThread)
	nblocks := (elements + perBlock - 1) / perBlock
	return &gpusim.Kernel{Name: name, Phase: phase, Blocks: []gpusim.BlockWork{{
		Count:             int(nblocks),
		Threads:           expansionBlockThreads,
		EffThreads:        expansionBlockThreads,
		MaxWarpIters:      mergeItersPerThread,
		SumWarpIters:      mergeItersPerThread * int64(expansionBlockThreads/32),
		SumThreadIters:    perBlock,
		ReadBytesPerIter:  readBytes,
		WriteBytesPerIter: writeBytes,
		Segment:           gpusim.NoSegment,
		Label:             label,
	}}}
}

// precalcKernel models the GPU-side precalculation pass over n pairs
// (block-wise and row-wise nnz estimation).
func precalcKernel(name string, n int) *gpusim.Kernel {
	k := uniformKernel(name, gpusim.PhasePre, int64(n), 8, 8, "precalc")
	return k
}

// hostSeconds models single-core host preprocessing at ~2ns per touched
// element plus a fixed invocation cost.
func hostSeconds(ops int64) float64 {
	return 10e-6 + float64(ops)*2e-9
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
