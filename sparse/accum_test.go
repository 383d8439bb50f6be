package sparse

import (
	"fmt"
	"math"
	"os"
	"os/exec"
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

// TestHostAccumulatorRule pins the host merge's resolution of each kind:
// tiny rows sort; rows with next to nothing to combine sort once the
// operand is too wide for the dense path to sweep them out of its bitmap;
// everything else goes dense, short rows of very wide operands included.
// A forced dense or sort passes through, and a forced hash merges dense.
func TestHostAccumulatorRule(t *testing.T) {
	const (
		narrow = 10_000
		mid    = 1 << 14 // 256 bitmap words: 8 per column of a 32-column row
		wide   = 1 << 21 // 16 MiB of dense scratch per worker
	)
	cases := []struct {
		kind  AccumulatorKind
		upper int64
		nnz   int
		cols  int
		want  AccumulatorKind
	}{
		// Explicit requests pass through whatever the row looks like;
		// the host has no table, so hash merges dense.
		{AccumDense, 1, 1, wide, AccumDense},
		{AccumHash, 1 << 30, 1, narrow, AccumDense},
		{AccumHash, 1, 1, narrow, AccumDense},
		{AccumHash, SortRowMax + 1, 8, wide, AccumDense},
		{AccumSort, 1 << 30, 1, narrow, AccumSort},
		// Tiny rows sort-combine at every width, nnz known or not.
		{AccumAuto, 1, 0, narrow, AccumSort},
		{AccumAuto, SortRowMax, 0, wide, AccumSort},
		// Narrow operands: everything past SortRowMax goes dense, even
		// rows the simulated merge would hash and rows with nothing to
		// combine.
		{AccumAuto, SortRowMax + 1, 0, narrow, AccumDense},
		{AccumAuto, SortRowMax + 1, SortRowMax + 1, narrow, AccumDense},
		{AccumAuto, narrow/8 - 1, 10, narrow, AccumDense},
		// Rows whose duplicates are at most one in 32 of their products
		// sort while the bitmap holds more than 8 words per merged
		// column; more duplicates, a denser bitmap or an unknown nnz keep
		// the dense path.
		{AccumAuto, 33, 32, mid, AccumDense}, // exactly 8 words per column
		{AccumAuto, 33, 32, mid + 64, AccumSort},
		{AccumAuto, 66, 64, 2*mid + 64, AccumSort},
		{AccumAuto, 66, 64, 2 * mid, AccumDense},
		{AccumAuto, 34, 32, 2 * mid, AccumDense}, // two duplicates in 34
		{AccumAuto, 66, 0, 4 * mid, AccumDense},
		// Short rows with duplicates of a 2^21-column operand go dense
		// too, as do rows whose footprint rivals the dimension.
		{AccumAuto, SortRowMax + 1, 8, wide, AccumDense},
		{AccumAuto, wide/8 - 1, 8, wide, AccumDense},
		{AccumAuto, wide / 8, 8, wide, AccumDense},
	}
	for _, c := range cases {
		if got := hostAccumulator(c.kind, c.upper, c.nnz, c.cols); got != c.want {
			t.Errorf("hostAccumulator(%v, upper %d, nnz %d, cols %d) = %v, want %v",
				c.kind, c.upper, c.nnz, c.cols, got, c.want)
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
		if math.Float64bits(gotVal[k]) != math.Float64bits(wantVal[k]) {
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
// CombineRow, the engine's historical sort-merge. Each runs with the
// merged population unknown (nnz 0) and with the exact count, which sends
// the long streams' dense rows down the wide path. Every non-empty row
// counts once, and a forced hash counts as dense.
func TestMergeStrategiesMatchCombineRow(t *testing.T) {
	rng := testRNG(7)
	const cols = 1 << 14
	streams := [][]int{
		{},                    // empty row
		{5},                   // singleton
		{9, 9, 9, 9, 9, 9},    // one column, all duplicates
		{3, 1, 2, 1, 3, 1, 0}, // small with duplicates
		make([]int, 33),       // just past SortRowMax
		make([]int, 1000),     // a row the simulated merge prices as hash
		make([]int, 3*cols),   // wider than the dimension: dense under both rules
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
			for _, nnz := range []int{0, len(wantIdx)} {
				m := NewRowMerger(cols)
				gotIdx, gotVal := m.ProductRow(kind, a, b, 0, int64(len(idx)), nnz, nil, nil)
				bitIdenticalRows(t, fmt.Sprintf("%v, nnz %d", kind, nnz), wantIdx, gotIdx, wantVal, gotVal)
				if len(idx) == 0 {
					if m.Counts != (AccumCounts{}) {
						t.Fatalf("stream %d: empty merge counted a row: %+v", si, m.Counts)
					}
				} else if m.Counts.Dense+m.Counts.Sort != 1 {
					t.Fatalf("stream %d (%v, nnz %d): counts %+v, want exactly one row",
						si, kind, nnz, m.Counts)
				} else if kind == AccumHash && m.Counts.Dense != 1 {
					t.Fatalf("stream %d (hash, nnz %d): counts %+v, want one dense row",
						si, nnz, m.Counts)
				}
				m.Release()
			}
		}
	}
}

// TestNegativeZeroMergesToPositiveZero pins the sign of a column whose
// only products are -0 (-1 times an explicit zero, or a negative product
// that underflows): every accumulator starts a column's sum at +0, as
// sparse.Multiply does, so the merged entry is +0 under all four kinds.
// The B rows cover the three dense emit branches: a 40-column row, whose
// one-word bitmap makes it wide, swept whole; columns 3 and 4 of a
// 4097-column operand, too few for its 65-word bitmap but in one word,
// which the span sweep emits; and columns 0 and 4096 of that operand, 64
// words apart, which the sort fallback emits.
func TestNegativeZeroMergesToPositiveZero(t *testing.T) {
	cases := []struct {
		name string
		av   float64
		cols int
		bIdx []int
		bVal []float64
	}{
		{"explicit zero, wide", -1, 40, []int{17}, []float64{0}},
		{"underflow, wide", -1e-200, 40, []int{3, 4}, []float64{1e-200, 0}},
		{"explicit zero, span sweep", -1, 4097, []int{3, 4}, []float64{0, 0}},
		{"underflow, span sweep", -1e-200, 4097, []int{3, 4}, []float64{1e-200, 0}},
		{"explicit zero, sort fallback", -1, 4097, []int{0, 4096}, []float64{0, 0}},
		{"underflow, sort fallback", 1e-200, 4097, []int{0, 4096}, []float64{-1e-200, 0}},
	}
	for _, c := range cases {
		a := NewCSR(1, 1)
		a.AppendRow(0, []int{0}, []float64{c.av})
		b := NewCSR(1, c.cols)
		b.AppendRow(0, c.bIdx, c.bVal)
		want, err := Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range want.Val {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: Multiply entry %d is %v, want +0", c.name, k, v)
			}
		}
		for _, kind := range allAccumKinds {
			got, err := MultiplyConfigured(a, b, nil, nil, MulConfig{Accum: kind})
			if err != nil {
				t.Fatal(err)
			}
			bitIdenticalRows(t, c.name+"/"+kind.String(), want.Idx, got.Idx, want.Val, got.Val)
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
			wantIdx, wantVal := oracle.ProductRow(AccumDense, a, b, i, upper[i], 0, nil, nil)
			gotIdx, gotVal := m.ProductRow(kind, a, b, i, upper[i], 0, nil, nil)
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
				if !got.Identical(want) {
					t.Fatalf("%v workers=%d rowNNZ=%v: not bit-identical to Multiply",
						kind, workers, withNNZ)
				}
			}
		}
	}
}

// TestDenseScratchZeroBetweenRows pins the invariant the dense path's
// branch-free scatter rests on: between rows, every accumulator cell is +0
// and every occupancy bit is clear, whichever emit branch ran and whatever
// the other strategies did in between. One merger runs rows that land on
// the wide row's whole-bitmap sweep, the span sweep and the sort fallback,
// interleaved with forced hash rows (which merge dense) and sort rows,
// each holding a column of only -0 products and one of cancelling
// products, and each must match CombineRow bit for bit. The merger's
// dense vector is drawn from an arena just
// handed a dirty buffer. Unless it already runs under BLOCKREORG_PARANOID,
// the test then runs itself again with it set, so that buffer comes back
// poisoned with NaN.
func TestDenseScratchZeroBetweenRows(t *testing.T) {
	const cols = 4097 // 65 bitmap words: a row is wide from 9 merged columns
	negZero := math.Copysign(0, -1)
	wide := make([]int, 0, 24)
	for j := 0; j < cols; j += 256 {
		wide = append(wide, j, j) // 17 columns, each twice
	}
	rows := []struct {
		kind AccumulatorKind
		idx  []int
	}{
		{AccumDense, wide},
		{AccumHash, []int{7, 4000, 7, 2048}},
		{AccumDense, []int{3, 4, 3}},          // span sweep
		{AccumSort, []int{4096, 0, 4096}},     // sort row
		{AccumDense, []int{0, 4096, 0, 4096}}, // sort fallback
		{AccumHash, wide},
		{AccumDense, []int{60, 70, 60}}, // span sweep across a word boundary
		{AccumDense, wide},
	}
	// Hand the arena a dirty buffer of the accumulator's size class first,
	// so the merger's dense vector is likely a recycled one: 1s as left, or
	// NaN once the arena poisons what it takes back.
	dirty := parallel.GetFloats(cols)
	for j := range dirty {
		dirty[j] = 1
	}
	parallel.PutFloats(dirty)
	m := NewRowMerger(cols)
	defer m.Release()
	for r, row := range rows {
		val := make([]float64, len(row.idx))
		for k := range val {
			switch k % 4 {
			case 0:
				val[k] = negZero
			case 1:
				val[k] = float64(r + 1)
			default:
				val[k] = -float64(k)
			}
		}
		wi := append([]int(nil), row.idx...)
		wv := append([]float64(nil), val...)
		wantIdx, wantVal := CombineRow(wi, wv, nil, nil)
		a, b := streamOperands(row.idx, val, cols)
		gotIdx, gotVal := m.ProductRow(row.kind, a, b, 0, int64(len(row.idx)), len(wantIdx), nil, nil)
		bitIdenticalRows(t, fmt.Sprintf("row %d (%v)", r, row.kind), wantIdx, gotIdx, wantVal, gotVal)
		for j, v := range m.acc[:cols] {
			if math.Float64bits(v) != 0 {
				t.Fatalf("after row %d (%v): acc[%d] = %v, want +0", r, row.kind, j, v)
			}
		}
		for w, word := range m.occupied {
			if word != 0 {
				t.Fatalf("after row %d (%v): occupancy word %d = %#x, want 0", r, row.kind, w, word)
			}
		}
	}
	if m.Counts.Dense != 7 || m.Counts.Sort != 1 {
		t.Fatalf("counts %+v, want 7 dense (2 of them forced hash), 1 sort", m.Counts)
	}

	if os.Getenv("BLOCKREORG_PARANOID") != "" || testing.Short() {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDenseScratchZeroBetweenRows$", "-test.count=1")
	cmd.Env = append(os.Environ(), "BLOCKREORG_PARANOID=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under BLOCKREORG_PARANOID=1: %v\n%s", err, out)
	}
}

// TestDenseRowsHoldNoValueScratch pins that the pair value buffer belongs
// to the sort path alone: a merger that has merged only dense rows — the
// span sweep and the sort fallback both fill the touched list — holds no
// float pair scratch, and its first sort row acquires it.
func TestDenseRowsHoldNoValueScratch(t *testing.T) {
	const cols = 4097
	m := NewRowMerger(cols)
	defer m.Release()
	merge := func(kind AccumulatorKind, idx []int) {
		val := make([]float64, len(idx))
		for k := range val {
			val[k] = float64(k + 1)
		}
		a, b := streamOperands(idx, val, cols)
		m.ProductRow(kind, a, b, 0, int64(len(idx)), 0, nil, nil)
	}
	merge(AccumDense, []int{3, 4, 3})          // span sweep
	merge(AccumDense, []int{0, 4096, 0, 4096}) // sort fallback
	merge(AccumHash, []int{7, 4000, 7, 2048})
	if m.Counts != (AccumCounts{Dense: 3}) {
		t.Fatalf("counts %+v, want 3 dense", m.Counts)
	}
	if cap(m.pIdx) == 0 {
		t.Fatal("dense rows acquired no touched-column scratch")
	}
	if cap(m.pVal) != 0 {
		t.Fatalf("dense rows hold %d floats of pair scratch, want none", cap(m.pVal))
	}
	merge(AccumSort, []int{4096, 0, 4096})
	if cap(m.pVal) < 3 {
		t.Fatalf("sort row holds %d floats of pair scratch, want at least 3", cap(m.pVal))
	}
}
