package ooc

import (
	"fmt"
	"io"

	"github.com/blockreorg/blockreorg/sparse"
)

// source abstracts where an operand's rows come from: a resident CSR or a
// segmented container on disk. The engine only ever asks for contiguous
// row ranges sized by the grid planner, so a file-backed operand is never
// materialized whole.
type source interface {
	dims() (rows, cols int64)
	nnz() int64
	// rowCuts partitions the rows into the longest panels fits accepts:
	// fits(in, out) reports whether a panel of in input bytes
	// (csrBytesFor) and out estimated output bytes (16 per weighted unit
	// plus the pointer array) may be resident. outWeight[i] is an upper
	// bound on the output population of row i, so the result tiles and
	// merge panels are sized too; a nil outWeight charges no output. A
	// single row — or, for file sources, a single stored panel — that
	// does not fit alone becomes a panel of its own: the budget is a
	// target, and the accountant reports the overshoot honestly.
	rowCuts(outWeight []int64, fits func(in, out int64) bool) []int64
	// rowNNZ returns the per-row entry counts, O(rows) memory.
	rowNNZ() ([]int64, error)
	// rowFlops returns, per row, the number of products the row expands
	// to against a B with the given row populations: Σ bRowNNZ[k] over
	// the row's column indices k. This upper-bounds the output row
	// population — the grid planner's output estimate.
	rowFlops(bRowNNZ []int64) ([]int64, error)
	// loadRows materializes rows [lo, hi) as a (hi−lo)×cols slab with
	// global column indices. File sources require lo and hi to be stored
	// panel boundaries, which rowCuts guarantees.
	loadRows(lo, hi int64) (*sparse.CSR, error)
	// colNNZ returns the per-column entry histogram, the input of the
	// column grid planner. O(cols) memory, one streaming pass.
	colNNZ() ([]int64, error)
}

// memSource serves panels of a resident CSR by copying row/column slices.
type memSource struct {
	m *sparse.CSR
}

func (s memSource) dims() (int64, int64) { return int64(s.m.Rows), int64(s.m.Cols) }
func (s memSource) nnz() int64           { return int64(s.m.NNZ()) }

func (s memSource) rowCuts(outWeight []int64, fits func(in, out int64) bool) []int64 {
	cuts := []int64{0}
	inB, outB := int64(8), int64(8)
	for i := 0; i < s.m.Rows; i++ {
		rin := csrBytesFor(1, int64(s.m.RowNNZ(i))) - 8
		rout := int64(0)
		if outWeight != nil {
			rout = 8 + 16*outWeight[i]
		}
		if !fits(inB+rin, outB+rout) && int64(i) > cuts[len(cuts)-1] {
			cuts = append(cuts, int64(i))
			inB, outB = 8, 8
		}
		inB += rin
		outB += rout
	}
	if int64(s.m.Rows) > cuts[len(cuts)-1] {
		cuts = append(cuts, int64(s.m.Rows))
	}
	return cuts
}

func (s memSource) loadRows(lo, hi int64) (*sparse.CSR, error) {
	return s.m.RowPanel(int(lo), int(hi)), nil
}

func (s memSource) colNNZ() ([]int64, error) {
	hist := make([]int64, s.m.Cols)
	for i := 0; i < s.m.Rows; i++ {
		idx, _ := s.m.Row(i)
		for _, j := range idx {
			hist[j]++
		}
	}
	return hist, nil
}

func (s memSource) rowNNZ() ([]int64, error) {
	out := make([]int64, s.m.Rows)
	for i := range out {
		out[i] = int64(s.m.RowNNZ(i))
	}
	return out, nil
}

func (s memSource) rowFlops(bRowNNZ []int64) ([]int64, error) {
	out := make([]int64, s.m.Rows)
	for i := 0; i < s.m.Rows; i++ {
		idx, _ := s.m.Row(i)
		var f int64
		for _, k := range idx {
			f += bRowNNZ[k]
		}
		out[i] = f
	}
	return out, nil
}

// fileSource serves panels of a segmented container. Row cuts align to
// the stored panel boundaries, so a load is a sequence of whole stored
// panels concatenated in memory.
type fileSource struct {
	seg *sparse.SegFile
}

func (s fileSource) dims() (int64, int64) {
	h := s.seg.Header()
	return h.Rows, h.Cols
}

func (s fileSource) nnz() int64 { return s.seg.Header().NNZ }

func (s fileSource) rowCuts(outWeight []int64, fits func(in, out int64) bool) []int64 {
	cuts := []int64{0}
	inB, outB := int64(8), int64(8)
	for _, p := range s.seg.Panels() {
		pin := csrBytesFor(p.End-p.Start, p.NNZ) - 8
		pout := int64(0)
		if outWeight != nil {
			pout = 8 * (p.End - p.Start)
			for _, w := range outWeight[p.Start:p.End] {
				pout += 16 * w
			}
		}
		if !fits(inB+pin, outB+pout) && p.Start > cuts[len(cuts)-1] {
			cuts = append(cuts, p.Start)
			inB, outB = 8, 8
		}
		inB += pin
		outB += pout
	}
	h := s.seg.Header()
	if h.Rows > cuts[len(cuts)-1] {
		cuts = append(cuts, h.Rows)
	}
	return cuts
}

func (s fileSource) loadRows(lo, hi int64) (*sparse.CSR, error) {
	h := s.seg.Header()
	out := sparse.NewCSR(int(hi-lo), int(h.Cols))
	row := 0
	for i, p := range s.seg.Panels() {
		if p.End <= lo || p.Start >= hi {
			continue
		}
		if p.Start < lo || p.End > hi {
			return nil, fmt.Errorf("ooc: load [%d,%d) does not align to stored panel [%d,%d)",
				lo, hi, p.Start, p.End)
		}
		pan, err := s.seg.LoadPanel(i)
		if err != nil {
			return nil, err
		}
		for r := 0; r < pan.Rows; r++ {
			idx, val := pan.Row(r)
			out.AppendRow(row, idx, val)
			row++
		}
	}
	if int64(row) != hi-lo {
		return nil, fmt.Errorf("ooc: stored panels cover %d of %d requested rows", row, hi-lo)
	}
	return out, nil
}

func (s fileSource) rowNNZ() ([]int64, error) {
	h := s.seg.Header()
	out := make([]int64, 0, h.Rows)
	for i, p := range s.seg.Panels() {
		pr, err := s.seg.StreamPanel(i)
		if err != nil {
			return nil, err
		}
		for r := 0; int64(r) < p.End-p.Start; r++ {
			out = append(out, int64(pr.RowNNZ(r)))
		}
	}
	return out, nil
}

func (s fileSource) rowFlops(bRowNNZ []int64) ([]int64, error) {
	h := s.seg.Header()
	out := make([]int64, 0, h.Rows)
	for i := range s.seg.Panels() {
		pr, err := s.seg.StreamPanel(i)
		if err != nil {
			return nil, err
		}
		for {
			idx, _, err := pr.NextRow()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			var f int64
			for _, k := range idx {
				if k < 0 || k >= len(bRowNNZ) {
					return nil, fmt.Errorf("ooc: column %d out of range [0,%d)", k, len(bRowNNZ))
				}
				f += bRowNNZ[k]
			}
			out = append(out, f)
		}
	}
	return out, nil
}

func (s fileSource) colNNZ() ([]int64, error) {
	h := s.seg.Header()
	hist := make([]int64, h.Cols)
	for i := range s.seg.Panels() {
		pr, err := s.seg.StreamPanel(i)
		if err != nil {
			return nil, err
		}
		for {
			idx, _, err := pr.NextRow()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			for _, j := range idx {
				if j < 0 || int64(j) >= h.Cols {
					return nil, fmt.Errorf("ooc: column %d out of range [0,%d)", j, h.Cols)
				}
				hist[j]++
			}
		}
	}
	return hist, nil
}

// colCuts partitions the columns into panels of at most share bytes each,
// charging every panel the mandatory pointer-array overhead of one
// rows-tall CSR slab plus 16 bytes per entry. A single column heavier than
// the share gets a panel of its own.
func colCuts(hist []int64, rows, share int64) []int64 {
	base := csrBytesFor(rows, 0)
	cuts := []int64{0}
	bytes := base
	for j := range hist {
		cb := 16 * hist[j]
		if bytes+cb > share && int64(j) > cuts[len(cuts)-1] {
			cuts = append(cuts, int64(j))
			bytes = base
		}
		bytes += cb
	}
	if int64(len(hist)) > cuts[len(cuts)-1] {
		cuts = append(cuts, int64(len(hist)))
	}
	return cuts
}
