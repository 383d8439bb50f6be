package sparse

import (
	"fmt"
	"sync/atomic"

	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// MultiplyKnown is the numeric pass of a product whose structure is
// already known: it computes the values of C = A×B into the row
// populations rowNNZ and the column indices idx that an earlier multiply
// of operands with exactly these patterns produced (a reusable plan keeps
// them). rowWork holds the per-row intermediate product counts of the same
// operands and weights the row chunks, as in MultiplyConfigured. The pass
// is the dense accumulator with its occupancy bitmap replaced by the known
// column list: every row adds its products into a dense vector in the
// canonical order and reads its known columns back out, clearing each
// cell it reads. No bitmap, sweep, sort or per-row strategy choice runs,
// the result is bit-identical to MultiplyConfigured under every
// accumulator, and the rows it merges count as dense (AccumCounts).
//
// The caller guarantees that idx is the product's structure; a column
// missing from it would leave its sum in the accumulator for the next row,
// so callers that cannot vouch for the operands' patterns must not use
// this pass. Slices whose lengths do not fit the operands are an error.
// idx and the counts are only read, never retained. A nil executor
// selects the process-wide default; on an executor view whose context ends
// mid-run it stops after the loop in flight and returns the context's
// error.
func MultiplyKnown(a, b *CSR, ex *parallel.Executor, rec *trace.Recorder, rowWork []int64, rowNNZ []int, idx []int) (*CSR, error) {
	if a.Cols != b.Rows {
		return nil, shapeError("MultiplyKnown", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if len(rowWork) != a.Rows || len(rowNNZ) != a.Rows {
		return nil, fmt.Errorf("sparse: MultiplyKnown: %d row counts and %d row populations for %d rows",
			len(rowWork), len(rowNNZ), a.Rows)
	}
	if ex == nil {
		ex = parallel.Default()
	}
	c := NewCSR(a.Rows, b.Cols)
	for i, n := range rowNNZ {
		c.Ptr[i+1] = c.Ptr[i] + n
	}
	if c.Ptr[a.Rows] != len(idx) {
		return nil, fmt.Errorf("sparse: MultiplyKnown: row populations sum to %d, %d column indices given",
			c.Ptr[a.Rows], len(idx))
	}
	// Appending to a nil slice copies without zeroing first.
	c.Idx = append([]int(nil), idx...)
	c.Val = make([]float64, len(idx))

	endExp := rec.SpanItems(trace.PhaseExpansion, int64(len(idx)))
	var dense atomic.Int64
	ex.ForEach(parallel.WeightedRanges(rowWork, 4*ex.Workers()), func(r parallel.Range) {
		// Arena buffers come back with arbitrary contents (NaN under
		// Paranoid mode); every row leaves the cells it read at +0.
		acc := parallel.GetFloats(b.Cols)
		clear(acc)
		var rows int64
		for i := r.Lo; i < r.Hi; i++ {
			if rowWork[i] == 0 {
				continue
			}
			rows++
			for ka := a.Ptr[i]; ka < a.Ptr[i+1]; ka++ {
				av := a.Val[ka]
				lo, hi := b.Ptr[a.Idx[ka]], b.Ptr[a.Idx[ka]+1]
				bv := b.Val[lo:hi]
				for kb, j := range b.Idx[lo:hi] {
					acc[j] += av * bv[kb]
				}
			}
			lo, hi := c.Ptr[i], c.Ptr[i+1]
			val := c.Val[lo:hi]
			for t, j := range c.Idx[lo:hi] {
				val[t] = acc[j]
				acc[j] = 0
			}
		}
		parallel.PutFloats(acc)
		dense.Add(rows)
	})
	endExp()
	if err := ex.Err(); err != nil {
		return nil, err
	}
	recordAccumCounts(rec, AccumCounts{Dense: dense.Load()})
	return c, nil
}
