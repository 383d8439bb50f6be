package sparse

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket feeds arbitrary bytes to the Matrix Market parser:
// it must either return an error or a deeply valid matrix, never panic or
// accept garbage silently.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n3 3\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9999\n1 1 1\n")
	// Seeds for the corruption taxonomy: bad magic line, wrong declared
	// size, truncated body, out-of-range index, and non-finite values
	// (CheckDeep must reject the latter if the parser ever lets them
	// through).
	f.Add("%%NotMatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 +Inf\n")
	// Size lines that once sized allocations before any entry was read:
	// rows past 32-bit indices, and an nnz no body could hold.
	f.Add("%%MatrixMarket matrix coordinate real general\n4611686018427387904 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 4611686018427387904\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parser accepted a structurally invalid matrix: %v", err)
		}
		if err := m.CheckDeep(); err != nil {
			t.Fatalf("parser accepted a deeply invalid matrix: %v", err)
		}
	})
}

// FuzzAccumulatorMerge feeds arbitrary product streams through every
// accumulator strategy — replayed through ProductRow as the product row of
// streamOperands — and requires bit-identical output to CombineRow, the
// engine's historical sort-merge. Bytes decode as (column, value) pairs
// over 256 columns spread 16 apart, so duplicates are the common case and
// a row's bitmap span can be wide enough for the dense path's sort
// fallback; column byte 255 stands for the last column, the lone bit in
// the last word of the occupancy bitmap, and value byte 0x80 for -0, so
// signed zeros are compared too. The seed corpus pins the hostile shapes —
// empty rows, all-duplicate rows, streams long enough to leave the
// auto-selector's sort path, and rows that land on each of the dense
// path's emit branches (the wide row's whole-bitmap sweep, the span sweep
// and the sort fallback), each with a column of only -0 products. Every
// strategy also runs forced, so each merge path sees every input, and
// every strategy runs twice: with the merged population unknown (nnz 0),
// which keeps the dense path on its first-touch loop, and with the exact
// count, which sends rows of at least 9 merged columns (the 65-word bitmap
// holds at most 8 words per column) down the wide path. Each product is
// also recomputed by the known-structure pass (MultiplyKnown) into
// CombineRow's columns, which must hold the same bits.
func FuzzAccumulatorMerge(f *testing.F) {
	f.Add([]byte{})                             // empty row
	f.Add([]byte{7, 1})                         // singleton
	f.Add([]byte{9, 1, 9, 2, 9, 3, 9, 4})       // one column, all duplicates
	f.Add([]byte{3, 1, 0, 2, 3, 3, 1, 4, 0, 5}) // small, interleaved duplicates
	long := make([]byte, 0, 2*(SortRowMax+1))
	for i := 0; i <= SortRowMax; i++ { // past SortRowMax: off the sort path
		long = append(long, byte(i%5), byte(i+1))
	}
	f.Add(long)
	wide := make([]byte, 0, 4096) // long enough to go dense under auto
	for i := 0; i < 2048; i++ {
		wide = append(wide, byte(i), byte(i%7+1))
	}
	f.Add(wide)
	// Dense emit by whole-bitmap sweep once nnz is known, and by span
	// sweep when it is not: the top 17 words hold 64 touched columns,
	// through the last one, with a -0 product and a -0 duplicate among
	// them.
	sweep := make([]byte, 0, 2*67)
	for i := 0; i < 64; i++ {
		sweep = append(sweep, byte(192+i), byte(i%9+1))
	}
	sweep = append(sweep, 250, 0x80, 255, 0x80, 255, 0x80)
	f.Add(sweep)
	// Dense emit by sort fallback: the first and last columns, 64 words
	// apart, the last holding only -0 products.
	f.Add([]byte{255, 0x80, 0, 3, 255, 0x80, 0, 4, 255, 0x80})
	// Dense emit by span sweep at every nnz: two columns in one word, the
	// first holding only -0 products.
	f.Add([]byte{1, 0x80, 2, 3, 1, 0x80})
	// Wide dense row: 9 merged columns spread over the whole bitmap, the
	// first and the last holding only -0 products.
	f.Add([]byte{0, 0x80, 32, 1, 64, 2, 96, 3, 128, 4, 160, 5, 192, 6, 224, 7,
		255, 0x80, 0, 0x80, 255, 0x80, 128, 1})

	f.Fuzz(func(t *testing.T, in []byte) {
		const cols = 16*256 + 1 // not a power of two: exercises table wraparound
		n := len(in) / 2
		idx := make([]int, n)
		val := make([]float64, n)
		for k := 0; k < n; k++ {
			idx[k] = 16 * int(in[2*k])
			if in[2*k] == 255 {
				idx[k] = cols - 1
			}
			val[k] = float64(int8(in[2*k+1])) / 8
			if in[2*k+1] == 0x80 {
				val[k] = math.Copysign(0, -1)
			}
		}
		wi := append([]int(nil), idx...)
		wv := append([]float64(nil), val...)
		wantIdx, wantVal := CombineRow(wi, wv, nil, nil)
		a, b := streamOperands(idx, val, cols)
		for _, kind := range allAccumKinds {
			for _, nnz := range []int{0, len(wantIdx)} {
				m := NewRowMerger(cols)
				gotIdx, gotVal := m.ProductRow(kind, a, b, 0, int64(n), nnz, nil, nil)
				if len(gotIdx) != len(wantIdx) {
					t.Fatalf("%v, nnz %d: %d entries, want %d", kind, nnz, len(gotIdx), len(wantIdx))
				}
				for k := range wantIdx {
					if gotIdx[k] != wantIdx[k] || math.Float64bits(gotVal[k]) != math.Float64bits(wantVal[k]) {
						t.Fatalf("%v, nnz %d: entry %d = (%d, %v), want (%d, %v)",
							kind, nnz, k, gotIdx[k], gotVal[k], wantIdx[k], wantVal[k])
					}
				}
				m.Release()
			}
		}
		// The known-structure pass fills CombineRow's columns with the
		// same bits.
		c, err := MultiplyKnown(a, b, nil, nil, []int64{int64(n)}, []int{len(wantIdx)}, wantIdx)
		if err != nil {
			t.Fatal(err)
		}
		for k := range wantIdx {
			if math.Float64bits(c.Val[k]) != math.Float64bits(wantVal[k]) {
				t.Fatalf("known structure: entry %d = (%d, %v), want (%d, %v)",
					k, c.Idx[k], c.Val[k], wantIdx[k], wantVal[k])
			}
		}
	})
}

// FuzzOpenSegmented writes arbitrary bytes to a file and reads it back as
// a segmented container through every reader: OpenSegmented, LoadPanel
// and StreamPanel on each panel, and ReadSegmentedFile. Each must return
// an error or a valid matrix, never panic, and allocate no more than a
// fixed multiple of the file's size however large the header's counts.
// The seeds are small valid files and the hostile corners of the format:
// truncation, an axis word other than row panels, a header nnz or row
// count the file cannot hold, a panel count past the file, and index
// entries whose sizes overflow int64 arithmetic.
func FuzzOpenSegmented(f *testing.F) {
	m := NewCSR(3, 4)
	m.Ptr = []int{0, 2, 2, 3}
	m.Idx = []int{0, 3, 1}
	m.Val = []float64{1, -2, 0.5}
	path := filepath.Join(f.TempDir(), "seed.csrs")
	if err := WriteSegmentedFile(path, m, 2); err != nil {
		f.Fatal(err)
	}
	rows, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// set overwrites the little-endian int64 at off in a copy of data.
	set := func(data []byte, off int, v uint64) []byte {
		c := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(c[off:], v)
		return c
	}
	const hdrAxis, hdrRows, hdrNNZ, hdrPanels = 8, 12, 28, 36
	indexOff := int(binary.LittleEndian.Uint64(rows[44:]))
	f.Add(rows)
	cols := append([]byte(nil), rows...)
	binary.LittleEndian.PutUint32(cols[hdrAxis:], 1) // the retired column-panel axis
	f.Add(cols)
	f.Add(rows[:len(rows)-7])
	f.Add([]byte("CSRS"))
	f.Add([]byte("CSRB"))
	f.Add([]byte{})
	f.Add(set(rows, hdrNNZ, 1<<40))                     // header nnz the panels do not hold
	f.Add(set(rows, hdrPanels, 1<<40))                  // panel count past the file
	f.Add(set(rows, hdrPanels, 0))                      // rows with no panel
	f.Add(set(set(rows, hdrPanels, 0), hdrRows, 1<<40)) // ... and absurdly many of them
	f.Add(set(rows, indexOff+16, 1<<62))                // panel nnz whose byte size wraps to 0
	f.Add(set(rows, indexOff+24, 1<<63-8))              // panel offset near MaxInt64
	f.Add(set(rows, indexOff+segIndexEntrySize+24, 52)) // second panel's payload over the first
	f.Add(set(rows, indexOff+8, 1<<61))                 // panel rows whose pointer bytes wrap
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.csrs")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if s, err := OpenSegmented(path); err == nil {
			for i := range s.Panels() {
				if p, err := s.LoadPanel(i); err == nil {
					if err := p.CheckDeep(); err != nil {
						t.Fatalf("LoadPanel(%d) accepted an invalid panel: %v", i, err)
					}
				}
				pr, err := s.StreamPanel(i)
				for err == nil {
					_, _, err = pr.NextRow()
				}
			}
			s.Close()
		}
		if m, err := ReadSegmentedFile(path); err == nil {
			if err := m.CheckDeep(); err != nil {
				t.Fatalf("ReadSegmentedFile accepted an invalid matrix: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+1<<20); got > limit {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), got)
		}
	})
}
