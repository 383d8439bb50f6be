package sparse

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// randomCSR builds a random rows×cols matrix with the given fill density.
func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	coo := NewCOO(rows, cols, int(float64(rows*cols)*density)+1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.Float64()*2-1)
			}
		}
	}
	return coo.ToCSR()
}

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 42)) }

func TestNewCSREmpty(t *testing.T) {
	m := NewCSR(5, 7)
	if err := m.Validate(); err != nil {
		t.Fatalf("empty matrix invalid: %v", err)
	}
	if m.NNZ() != 0 {
		t.Fatalf("empty matrix has nnz %d", m.NNZ())
	}
	if got := m.At(3, 4); got != 0 {
		t.Fatalf("At on empty = %g", got)
	}
}

func TestCSRAt(t *testing.T) {
	m := &CSR{
		Rows: 3, Cols: 4,
		Ptr: []int{0, 2, 2, 4},
		Idx: []int{0, 3, 1, 2},
		Val: []float64{1, 2, 3, 4},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 1}, {0, 3, 2}, {0, 1, 0}, {1, 0, 0}, {2, 1, 3}, {2, 2, 4}, {2, 3, 0},
	}
	for _, c := range cases {
		if got := m.At(c.i, c.j); got != c.want {
			t.Errorf("At(%d,%d) = %g, want %g", c.i, c.j, got, c.want)
		}
	}
}

func TestCSRValidateRejects(t *testing.T) {
	base := func() *CSR {
		return &CSR{Rows: 2, Cols: 2, Ptr: []int{0, 1, 2}, Idx: []int{0, 1}, Val: []float64{1, 2}}
	}
	mutations := map[string]func(*CSR){
		"short ptr":        func(m *CSR) { m.Ptr = m.Ptr[:2] },
		"ptr not monotone": func(m *CSR) { m.Ptr[1] = 3; m.Ptr[2] = 2 },
		"ptr[0] nonzero":   func(m *CSR) { m.Ptr[0] = 1 },
		"bad nnz":          func(m *CSR) { m.Ptr[2] = 5 },
		"col out of range": func(m *CSR) { m.Idx[1] = 9 },
		"negative col":     func(m *CSR) { m.Idx[0] = -1 },
		"len mismatch":     func(m *CSR) { m.Val = m.Val[:1] },
	}
	for name, mutate := range mutations {
		m := base()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt matrix", name)
		}
	}
	dup := &CSR{Rows: 1, Cols: 3, Ptr: []int{0, 2}, Idx: []int{1, 1}, Val: []float64{1, 2}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate column accepted")
	}
	unsorted := &CSR{Rows: 1, Cols: 3, Ptr: []int{0, 2}, Idx: []int{2, 0}, Val: []float64{1, 2}}
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted row accepted")
	}
}

func TestCSRCloneIndependent(t *testing.T) {
	m := randomCSR(testRNG(1), 8, 8, 0.3)
	c := m.Clone()
	if !m.Equal(c, 0) {
		t.Fatal("clone differs from original")
	}
	if c.NNZ() == 0 {
		t.Skip("degenerate random draw")
	}
	c.Val[0] += 5
	c.Idx[0] = (c.Idx[0] + 1) % c.Cols
	if m.Equal(c, 0) {
		t.Fatal("mutating clone affected original comparison")
	}
}

// Identical compares bits where Equal(·, 0) compares values: a −0 against
// a +0 and a NaN against itself split the two.
func TestCSRIdenticalComparesBits(t *testing.T) {
	m := &CSR{Rows: 1, Cols: 3, Ptr: []int{0, 2}, Idx: []int{0, 2}, Val: []float64{0, math.NaN()}}
	if !m.Identical(m.Clone()) {
		t.Fatal("a matrix is not identical to its clone")
	}
	neg := m.Clone()
	neg.Val[0] = math.Copysign(0, -1)
	if m.Identical(neg) {
		t.Fatal("−0 is identical to +0")
	}
	num := m.Clone()
	num.Val[1] = 1
	if !m.Equal(num, 0) || m.Identical(num) {
		t.Fatal("Equal should match a NaN to a number and Identical should not")
	}
	moved := m.Clone()
	moved.Idx[1] = 1
	if m.Identical(moved) {
		t.Fatal("a moved column is identical")
	}
	if m.Identical(&CSR{Rows: 1, Cols: 4, Ptr: []int{0, 2}, Idx: []int{0, 2}, Val: m.Val}) {
		t.Fatal("a wider matrix is identical")
	}
}

func TestCSRSortRowsMergesDuplicates(t *testing.T) {
	m := &CSR{
		Rows: 2, Cols: 4,
		Ptr: []int{0, 4, 6},
		Idx: []int{3, 1, 3, 0, 2, 2},
		Val: []float64{1, 2, 10, 3, 4, 5},
	}
	m.SortRows()
	if err := m.Validate(); err != nil {
		t.Fatalf("after SortRows: %v", err)
	}
	want := &CSR{
		Rows: 2, Cols: 4,
		Ptr: []int{0, 3, 4},
		Idx: []int{0, 1, 3, 2},
		Val: []float64{3, 2, 11, 9},
	}
	if !m.Equal(want, 1e-15) {
		t.Fatalf("SortRows result wrong:\n got ptr=%v idx=%v val=%v", m.Ptr, m.Idx, m.Val)
	}
}

func TestCSRRowAccessors(t *testing.T) {
	m := randomCSR(testRNG(2), 20, 15, 0.2)
	total := 0
	maxRow := 0
	for i := 0; i < m.Rows; i++ {
		idx, val := m.Row(i)
		if len(idx) != len(val) || len(idx) != m.RowNNZ(i) {
			t.Fatalf("row %d accessor length mismatch", i)
		}
		total += len(idx)
		if len(idx) > maxRow {
			maxRow = len(idx)
		}
	}
	if total != m.NNZ() {
		t.Fatalf("rows sum to %d, nnz is %d", total, m.NNZ())
	}
	if m.MaxRowNNZ() != maxRow {
		t.Fatalf("MaxRowNNZ = %d, want %d", m.MaxRowNNZ(), maxRow)
	}
}

func TestCSRScaleAndNorm(t *testing.T) {
	m := randomCSR(testRNG(3), 10, 10, 0.3)
	n0 := m.FrobeniusNorm()
	m.Scale(2)
	if n1 := m.FrobeniusNorm(); n1 < 1.999*n0 || n1 > 2.001*n0 {
		t.Fatalf("Scale(2) changed norm %g -> %g", n0, n1)
	}
}

// Property: COO -> CSR conversion produces a valid matrix whose dense
// rendering matches a direct dense accumulation of the same triplets.
func TestCOOToCSRMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		rows := 1 + rng.IntN(12)
		cols := 1 + rng.IntN(12)
		n := rng.IntN(60)
		coo := NewCOO(rows, cols, n)
		dense := NewDense(rows, cols)
		for k := 0; k < n; k++ {
			i, j := rng.IntN(rows), rng.IntN(cols)
			v := rng.Float64()*4 - 2
			coo.Add(i, j, v)
			dense.Set(i, j, dense.At(i, j)+v)
		}
		m := coo.ToCSR()
		if m.Validate() != nil {
			return false
		}
		return m.ToDense().Equal(dense, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCOOAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	NewCOO(2, 2, 0).Add(2, 0, 1)
}

func TestCOOSortDeterministic(t *testing.T) {
	coo := NewCOO(3, 3, 4)
	coo.Add(2, 1, 1)
	coo.Add(0, 2, 2)
	coo.Add(2, 0, 3)
	coo.Add(0, 1, 4)
	coo.Sort()
	wantI := []int{0, 0, 2, 2}
	wantJ := []int{1, 2, 0, 1}
	for k := range wantI {
		if coo.I[k] != wantI[k] || coo.J[k] != wantJ[k] {
			t.Fatalf("sorted order wrong at %d: (%d,%d)", k, coo.I[k], coo.J[k])
		}
	}
}
