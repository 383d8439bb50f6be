package sparse

import (
	"math/bits"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/internal/parallel"
)

// allAccumKinds is every strategy a caller can request, auto included.
var allAccumKinds = []AccumulatorKind{AccumAuto, AccumDense, AccumHash, AccumSort}

func TestParseAccumulatorRoundTrip(t *testing.T) {
	for _, k := range allAccumKinds {
		got, err := ParseAccumulator(k.String())
		if err != nil {
			t.Fatalf("ParseAccumulator(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseAccumulator(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if got, err := ParseAccumulator(""); err != nil || got != AccumAuto {
		t.Fatalf("ParseAccumulator(\"\") = %v, %v; want AccumAuto", got, err)
	}
	if _, err := ParseAccumulator("radix"); err == nil {
		t.Fatal("ParseAccumulator accepted an unknown name")
	} else if !strings.Contains(err.Error(), "radix") {
		t.Fatalf("error does not name the offender: %v", err)
	}
}

func TestSelectAccumulatorThresholds(t *testing.T) {
	const cols = 10_000
	cases := []struct {
		kind  AccumulatorKind
		upper int64
		want  AccumulatorKind
	}{
		// Explicit requests pass through whatever the row looks like.
		{AccumDense, 1, AccumDense},
		{AccumHash, 1 << 30, AccumHash},
		{AccumSort, 1 << 30, AccumSort},
		// Auto: tiny rows sort-combine...
		{AccumAuto, 1, AccumSort},
		{AccumAuto, SortRowMax, AccumSort},
		// ...mid rows hash while the table stays far below O(cols)...
		{AccumAuto, SortRowMax + 1, AccumHash},
		{AccumAuto, cols/HashColsFactor - 1, AccumHash},
		// ...and rows whose footprint rivals the dimension go dense.
		{AccumAuto, cols / HashColsFactor, AccumDense},
		{AccumAuto, cols, AccumDense},
	}
	for _, c := range cases {
		if got := SelectAccumulator(c.kind, c.upper, cols); got != c.want {
			t.Errorf("SelectAccumulator(%v, %d, %d) = %v, want %v",
				c.kind, c.upper, cols, got, c.want)
		}
	}
}

func TestHashTableSlots(t *testing.T) {
	for upper := int64(0); upper < 5000; upper++ {
		slots := HashTableSlots(upper)
		if slots&(slots-1) != 0 {
			t.Fatalf("HashTableSlots(%d) = %d, not a power of two", upper, slots)
		}
		if slots < 8 {
			t.Fatalf("HashTableSlots(%d) = %d, below the minimum table", upper, slots)
		}
		if upper >= 4 && int64(slots) < 2*upper {
			t.Fatalf("HashTableSlots(%d) = %d, load factor above 1/2", upper, slots)
		}
		if upper >= 4 && int64(slots) >= 4*upper {
			t.Fatalf("HashTableSlots(%d) = %d, table more than 2x oversized", upper, slots)
		}
		if slots != 1<<bits.Len64(uint64(slots-1)) {
			t.Fatalf("HashTableSlots(%d) = %d, not exact", upper, slots)
		}
	}
}

// bitIdenticalRows fails unless the two appended rows match to the bit.
func bitIdenticalRows(t *testing.T, label string, wantIdx, gotIdx []int, wantVal, gotVal []float64) {
	t.Helper()
	if len(gotIdx) != len(wantIdx) {
		t.Fatalf("%s: %d entries, want %d", label, len(gotIdx), len(wantIdx))
	}
	for k := range wantIdx {
		if gotIdx[k] != wantIdx[k] {
			t.Fatalf("%s: entry %d has column %d, want %d", label, k, gotIdx[k], wantIdx[k])
		}
		if gotVal[k] != wantVal[k] {
			t.Fatalf("%s: entry %d at column %d holds %v, want %v (not bit-identical)",
				label, k, gotIdx[k], gotVal[k], wantVal[k])
		}
	}
}

// streamOperands builds the operands whose product row 0 is exactly the
// given product stream: A is a 1×n row of ones and B is n×cols with the
// single entry B[k, idx[k]] = val[k] per row, so the engine's canonical
// order (ascending k) replays the stream in order and 1·val[k] = val[k]
// bit for bit.
func streamOperands(idx []int, val []float64, cols int) (a, b *CSR) {
	n := len(idx)
	a = NewCSR(1, n)
	b = NewCSR(n, cols)
	for k := 0; k < n; k++ {
		a.Idx = append(a.Idx, k)
		a.Val = append(a.Val, 1)
		b.AppendRow(k, idx[k:k+1], val[k:k+1])
	}
	a.Ptr[1] = n
	return a, b
}

// TestMergeStrategiesMatchCombineRow drives every strategy over product
// streams — duplicate-heavy, single-column, and empty — replayed through
// ProductRow (see streamOperands), and requires bit-identical output to
// CombineRow, the engine's historical sort-merge.
func TestMergeStrategiesMatchCombineRow(t *testing.T) {
	rng := testRNG(7)
	const cols = 1 << 14
	streams := [][]int{
		{},                    // empty row
		{5},                   // singleton
		{9, 9, 9, 9, 9, 9},    // one column, all duplicates
		{3, 1, 2, 1, 3, 1, 0}, // small with duplicates
		make([]int, 33),       // just past SortRowMax
		make([]int, 1000),     // hash-sized under auto
		make([]int, 3*cols),   // wider than the dimension: dense under auto
	}
	for i := 4; i < len(streams); i++ {
		for k := range streams[i] {
			// Low-column bias makes duplicates common in every stream.
			streams[i][k] = rng.IntN(cols / 4)
		}
	}
	for si, idx := range streams {
		val := make([]float64, len(idx))
		for k := range val {
			val[k] = rng.Float64()*2 - 1
		}
		wi := make([]int, len(idx))
		wv := make([]float64, len(val))
		copy(wi, idx)
		copy(wv, val)
		wantIdx, wantVal := CombineRow(wi, wv, nil, nil)
		a, b := streamOperands(idx, val, cols)

		for _, kind := range allAccumKinds {
			m := NewRowMerger(cols)
			gotIdx, gotVal := m.ProductRow(kind, a, b, 0, int64(len(idx)), nil, nil)
			bitIdenticalRows(t, kind.String(), wantIdx, gotIdx, wantVal, gotVal)
			if len(idx) == 0 {
				if m.Counts != (AccumCounts{}) {
					t.Fatalf("stream %d: empty merge counted a row: %+v", si, m.Counts)
				}
			} else if m.Counts.Dense+m.Counts.Hash+m.Counts.Sort != 1 {
				t.Fatalf("stream %d (%v): counts %+v, want exactly one row",
					si, kind, m.Counts)
			}
			m.Release()
		}
	}
}

// TestProductRowStrategiesBitIdentical forces each strategy over every row
// of a random product and checks it against the dense oracle. The B
// operand funnels into few columns so rows are duplicate-heavy, and some A
// rows are empty.
func TestProductRowStrategiesBitIdentical(t *testing.T) {
	rng := testRNG(11)
	a := randomCSR(rng, 60, 40, 0.15)
	b := randomCSR(rng, 40, 12, 0.3) // narrow: heavy duplicate collapse
	// Empty a few A rows outright.
	for _, i := range []int{0, 17, 59} {
		n := a.Ptr[i+1] - a.Ptr[i]
		if n > 0 {
			copy(a.Idx[a.Ptr[i]:], a.Idx[a.Ptr[i+1]:])
			copy(a.Val[a.Ptr[i]:], a.Val[a.Ptr[i+1]:])
			for r := i + 1; r <= a.Rows; r++ {
				a.Ptr[r] -= n
			}
			a.Idx = a.Idx[:len(a.Idx)-n]
			a.Val = a.Val[:len(a.Val)-n]
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}

	upper := make([]int64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for ka := a.Ptr[i]; ka < a.Ptr[i+1]; ka++ {
			upper[i] += int64(b.RowNNZ(a.Idx[ka]))
		}
	}
	for _, kind := range allAccumKinds[1:] { // dense is the oracle
		oracle := NewRowMerger(b.Cols)
		m := NewRowMerger(b.Cols)
		for i := 0; i < a.Rows; i++ {
			wantIdx, wantVal := oracle.ProductRow(AccumDense, a, b, i, upper[i], nil, nil)
			gotIdx, gotVal := m.ProductRow(kind, a, b, i, upper[i], nil, nil)
			bitIdenticalRows(t, kind.String(), wantIdx, gotIdx, wantVal, gotVal)
		}
		oracle.Release()
		m.Release()
	}
}

// TestMultiplyConfiguredStrategies checks the full engine under every
// strategy — sequential and chunked-parallel — against the sequential
// Multiply, bit for bit, and confirms the supplied RowNNZ shortcut changes
// nothing.
func TestMultiplyConfiguredStrategies(t *testing.T) {
	rng := testRNG(23)
	a := randomCSR(rng, 150, 120, 0.06)
	b := randomCSR(rng, 120, 90, 0.08)
	want, err := Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rowNNZ, err := SymbolicRowNNZOn(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ex := parallel.NewExecutor(workers)
		for _, kind := range allAccumKinds {
			for _, withNNZ := range []bool{false, true} {
				cfg := MulConfig{Accum: kind}
				if withNNZ {
					cfg.RowNNZ = rowNNZ
				}
				got, err := MultiplyConfigured(a, b, ex, nil, cfg)
				if err != nil {
					t.Fatalf("%v workers=%d rowNNZ=%v: %v", kind, workers, withNNZ, err)
				}
				if !got.Equal(want, 0) {
					t.Fatalf("%v workers=%d rowNNZ=%v: not bit-identical to Multiply",
						kind, workers, withNNZ)
				}
			}
		}
	}
}
