package sparse

import (
	"fmt"
	"sync"

	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// MulConfig tunes MultiplyConfigured beyond the executor and recorder.
type MulConfig struct {
	// Accum selects the per-row merge strategy; the zero value is
	// AccumAuto (per-row selection from the symbolic upper bound). The
	// host merges every row dense or sorted, so AccumHash merges dense.
	// Every setting is bit-identical — the knob trades merge locality,
	// never values.
	Accum AccumulatorKind
	// RowNNZ optionally supplies the exact merged row populations of the
	// product (sparse.SymbolicRowNNZ of the same operands), letting the
	// engine skip its own symbolic sizing pass — the plan and
	// precompute layers already paid for it. Ignored unless its length is
	// exactly a.Rows. The caller keeps ownership.
	RowNNZ []int
	// RowWork optionally supplies the per-row intermediate product counts
	// of the product (sparse.IntermediateRowNNZ of the same operands),
	// letting the engine skip its own count: they weight the row chunks
	// and drive the accumulator selector. Ignored unless its length is
	// exactly a.Rows. The caller keeps ownership.
	RowWork []int64
}

// recordAccumCounts publishes the rows one run merged per strategy.
func recordAccumCounts(rec *trace.Recorder, counts AccumCounts) {
	if !rec.Enabled() {
		return
	}
	rec.Add(trace.CounterAccumDenseRows, counts.Dense)
	rec.Add(trace.CounterAccumSortRows, counts.Sort)
}

// MultiplyConfigured is the host numeric engine: C = A×B by row-wise
// Gustavson on an explicit executor (nil selects the process-wide default),
// with all scratch drawn from the shared arenas and phase-level spans
// recorded on rec (nil disables tracing at zero cost). Rows are dealt in
// contiguous chunks sized by intermediate work (counted here unless
// cfg.RowWork supplies it) rather than row count, so
// one hub row cannot serialize the computation — the CPU analogue of the
// load-balancing problem the Block Reorganizer solves on GPUs. A symbolic
// pass (skipped when cfg.RowNNZ supplies the populations) sizes every
// output row exactly, and the numeric pass merges each row on the strategy
// cfg.Accum resolves to (see AccumulatorKind), writing straight into its
// final slot. On an executor view whose context ends mid-run
// (parallel.Executor.WithContext) it stops after the loop in flight and
// returns the context's error, never a half-written product.
//
// Canonical order: every output entry sums its intermediate products in
// ascending k over A's row entries, and in B-row order within one k. The
// result is therefore bit-identical to Multiply, across every worker count
// and accumulator, and to the Block Reorganizer's block walk
// (core.Plan.Execute), whatever launch order the reorganized plan uses.
// Out-of-core tiling (package ooc) depends on this contract: a column
// slice of B drops contributions without reordering the survivors, so
// panel products reassemble into the bitwise-identical whole.
func MultiplyConfigured(a, b *CSR, ex *parallel.Executor, rec *trace.Recorder, cfg MulConfig) (*CSR, error) {
	if a.Cols != b.Rows {
		return nil, shapeError("MultiplyConfigured", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if ex == nil {
		ex = parallel.Default()
	}
	if len(cfg.RowNNZ) != a.Rows {
		cfg.RowNNZ = nil
	}
	// Work-weighted chunking: split rows so each chunk holds a similar
	// number of intermediate products. The same per-row upper bounds
	// drive the host accumulator selector.
	rowWork := cfg.RowWork
	if len(rowWork) != a.Rows {
		workStart := rec.Now()
		rowWork = parallel.GetInt64s(a.Rows)
		defer parallel.PutInt64s(rowWork)
		intermediateRowWorkInto(rowWork, a, b, ex)
		if err := ex.Err(); err != nil {
			return nil, err
		}
		if rec.Enabled() {
			var flops int64
			for _, w := range rowWork {
				flops += w
			}
			rec.Observe(trace.PhaseIntermediate, flops, rec.Since(workStart))
		}
	}
	chunks := parallel.WeightedRanges(rowWork, 4*ex.Workers())

	// Symbolic phase: size every output row exactly, so the numeric phase
	// writes straight into the final arrays — no per-chunk growth, no
	// stitching copy, and peak memory is the result itself. A caller that
	// already holds the populations (plan reuse, precompute sharing)
	// skips the sweep entirely.
	rowNNZ := cfg.RowNNZ
	if rowNNZ == nil {
		symStart := rec.Now()
		rowNNZ = parallel.GetInts(a.Rows)
		defer parallel.PutInts(rowNNZ)
		symbolicRowsOn(rowNNZ, a, b, ex, chunks)
		if err := ex.Err(); err != nil {
			return nil, err
		}
		if rec.Enabled() {
			var nnzc int64
			for _, n := range rowNNZ {
				nnzc += int64(n)
			}
			rec.Observe(trace.PhaseSymbolic, nnzc, rec.Since(symStart))
		}
	}

	// Numeric phase: every chunk merges its rows through a pluggable
	// accumulator and writes them into their precomputed slots. Capped
	// three-index appends keep a misbehaving row from spilling into its
	// neighbour's slot; exact sizing makes any length mismatch a fault.
	c := NewCSRWithRowSizes(a.Rows, b.Cols, rowNNZ)
	endExp := rec.SpanItems(trace.PhaseExpansion, int64(c.NNZ()))
	var mu sync.Mutex
	var counts AccumCounts
	badRow := int64(-1)
	ex.ForEach(chunks, func(r parallel.Range) {
		mg := NewRowMerger(b.Cols)
		for i := r.Lo; i < r.Hi; i++ {
			dstIdx, dstVal := c.Row(i)
			outIdx, _ := mg.ProductRow(cfg.Accum, a, b, i, rowWork[i], rowNNZ[i],
				dstIdx[0:0:len(dstIdx)], dstVal[0:0:len(dstVal)])
			if len(outIdx) != len(dstIdx) {
				mu.Lock()
				if badRow < 0 {
					badRow = int64(i)
				}
				mu.Unlock()
				break
			}
		}
		mu.Lock()
		counts.add(mg.Counts)
		mu.Unlock()
		mg.Release()
	})
	endExp()
	if err := ex.Err(); err != nil {
		return nil, err
	}
	if badRow >= 0 {
		return nil, fmt.Errorf("sparse: row %d merged to a population different from its symbolic size", badRow)
	}
	recordAccumCounts(rec, counts)
	return c, nil
}

// SymbolicRowNNZOn is SymbolicRowNNZ on an explicit executor: the marker
// sweep runs per work-weighted row chunk with pooled marker arrays, each
// chunk writing its disjoint range of the counts. A nil executor selects
// the process-wide default; a stopped executor view returns its error.
func SymbolicRowNNZOn(a, b *CSR, ex *parallel.Executor) ([]int, error) {
	return SymbolicRowNNZWith(a, b, ex, nil)
}

// SymbolicRowNNZWith is SymbolicRowNNZOn for a caller that already holds
// the per-row intermediate product counts of the same operands
// (IntermediateRowNNZOn): they weight the sweep's chunks, and the sweep
// skips counting them again. rowWork is ignored unless its length is
// exactly a.Rows; the caller keeps ownership.
func SymbolicRowNNZWith(a, b *CSR, ex *parallel.Executor, rowWork []int64) ([]int, error) {
	if a.Cols != b.Rows {
		return nil, shapeError("SymbolicRowNNZOn", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if ex == nil {
		ex = parallel.Default()
	}
	if len(rowWork) != a.Rows {
		// The sweep visits every intermediate product once, so the
		// per-row intermediate counts are its exact work profile.
		rowWork = parallel.GetInt64s(a.Rows)
		defer parallel.PutInt64s(rowWork)
		intermediateRowWorkInto(rowWork, a, b, ex)
		if err := ex.Err(); err != nil {
			return nil, err
		}
	}
	counts := make([]int, a.Rows)
	symbolicRowsOn(counts, a, b, ex, parallel.WeightedRanges(rowWork, 4*ex.Workers()))
	if err := ex.Err(); err != nil {
		return nil, err
	}
	return counts, nil
}

// symbolicRowsOn is the marker sweep of the symbolic phase: it writes the
// merged population of every row of A×B into counts, one chunk at a time
// with a pooled marker array. Each product stamps its column with the
// row's stamp unconditionally and counts the columns whose previous stamp
// differed, which the compiler turns into a conditional move: the inner
// loop has no data-dependent branch. A's and B's rows are walked as range
// slices, so the inner loop bounds-checks only the marker.
func symbolicRowsOn(counts []int, a, b *CSR, ex *parallel.Executor, chunks []parallel.Range) {
	ex.ForEach(chunks, func(r parallel.Range) {
		marker := parallel.GetIntsZeroed(b.Cols)
		for i := r.Lo; i < r.Hi; i++ {
			stamp, n := i+1, 0
			for _, k := range a.Idx[a.Ptr[i]:a.Ptr[i+1]] {
				for _, j := range b.Idx[b.Ptr[k]:b.Ptr[k+1]] {
					m := marker[j]
					marker[j] = stamp
					if m != stamp {
						n++
					}
				}
			}
			counts[i] = n
		}
		parallel.PutInts(marker)
	})
}

// IntermediateRowNNZOn is IntermediateRowNNZ on an explicit executor with
// pooled scratch. A nil executor selects the process-wide default; a
// stopped executor view returns its error.
func IntermediateRowNNZOn(a, b *CSR, ex *parallel.Executor) ([]int64, error) {
	if a.Cols != b.Rows {
		return nil, shapeError("IntermediateRowNNZOn", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if ex == nil {
		ex = parallel.Default()
	}
	out := make([]int64, a.Rows)
	intermediateRowWorkInto(out, a, b, ex)
	if err := ex.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// intermediateRowWorkInto fills out (length a.Rows) with the per-row
// intermediate product counts of A×B. Shapes must already be checked.
func intermediateRowWorkInto(out []int64, a, b *CSR, ex *parallel.Executor) {
	rowNNZ := parallel.GetInt64s(b.Rows)
	for k := 0; k < b.Rows; k++ {
		rowNNZ[k] = int64(b.RowNNZ(k))
	}
	ex.ForEachN(a.Rows, func(r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			var n int64
			for ka := a.Ptr[i]; ka < a.Ptr[i+1]; ka++ {
				n += rowNNZ[a.Idx[ka]]
			}
			out[i] = n
		}
	})
	parallel.PutInt64s(rowNNZ)
}

// insertionSortInts sorts small index slices in place; row populations are
// usually tiny, where insertion sort beats sort.Ints.
func insertionSortInts(s []int) {
	if len(s) > 64 {
		quickSortFallback(s)
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// quickSortFallback handles the long-row case.
func quickSortFallback(s []int) {
	// Median-of-three quicksort with insertion sort leaves.
	for len(s) > 64 {
		mid := partitionInts(s)
		if mid < len(s)-mid {
			quickSortFallback(s[:mid])
			s = s[mid:]
		} else {
			quickSortFallback(s[mid:])
			s = s[:mid]
		}
	}
	if len(s) > 1 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
	}
}

// partitionInts partitions s around a median-of-three pivot and returns the
// boundary.
func partitionInts(s []int) int {
	a, b, c := s[0], s[len(s)/2], s[len(s)-1]
	pivot := a
	if (a <= b && b <= c) || (c <= b && b <= a) {
		pivot = b
	} else if (a <= c && c <= b) || (b <= c && c <= a) {
		pivot = c
	}
	i, j := 0, len(s)-1
	for i <= j {
		for s[i] < pivot {
			i++
		}
		for s[j] > pivot {
			j--
		}
		if i <= j {
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
	}
	return i
}
