package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 1 + rng.IntN(15)
		m := 1 + rng.IntN(15)
		a := randomCSR(rng, n, m, 0.3)
		b := randomCSR(rng, n, m, 0.3)
		c, err := Add(a, b)
		if err != nil || c.Validate() != nil {
			return false
		}
		da, db, dc := a.ToDense(), b.ToDense(), c.ToDense()
		for k := range da.Data {
			if math.Abs(da.Data[k]+db.Data[k]-dc.Data[k]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAddShapeMismatch(t *testing.T) {
	if _, err := Add(NewCSR(2, 3), NewCSR(3, 2)); err == nil {
		t.Fatal("mismatched Add accepted")
	}
	if _, err := Hadamard(NewCSR(2, 3), NewCSR(3, 2)); err == nil {
		t.Fatal("mismatched Hadamard accepted")
	}
}

func TestHadamardAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 1 + rng.IntN(15)
		a := randomCSR(rng, n, n, 0.35)
		b := randomCSR(rng, n, n, 0.35)
		c, err := Hadamard(a, b)
		if err != nil || c.Validate() != nil {
			return false
		}
		da, db, dc := a.ToDense(), b.ToDense(), c.ToDense()
		for k := range da.Data {
			if math.Abs(da.Data[k]*db.Data[k]-dc.Data[k]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPrune(t *testing.T) {
	m := &CSR{Rows: 2, Cols: 3, Ptr: []int{0, 3, 4}, Idx: []int{0, 1, 2, 1}, Val: []float64{0.5, -0.01, 0, 2}}
	p := m.Prune(0.1)
	if p.NNZ() != 2 || p.At(0, 0) != 0.5 || p.At(1, 1) != 2 {
		t.Fatalf("prune wrong: nnz=%d", p.NNZ())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if z := m.Prune(0); z.NNZ() != 3 {
		t.Fatalf("Prune(0) kept %d entries, want 3", z.NNZ())
	}
}

func TestDiagonalAndIdentity(t *testing.T) {
	id := Identity(5)
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	d := id.Diagonal()
	for _, v := range d {
		if v != 1 {
			t.Fatal("identity diagonal wrong")
		}
	}
	rect := NewCSR(3, 7)
	if len(rect.Diagonal()) != 3 {
		t.Fatal("rectangular diagonal length wrong")
	}
	// Identity must be a multiplication unit.
	rng := testRNG(3)
	a := randomCSR(rng, 5, 5, 0.4)
	p, err := Multiply(id, a)
	if err != nil || !p.Equal(a, 1e-15) {
		t.Fatal("I×A != A")
	}
}

func TestSelectRows(t *testing.T) {
	rng := testRNG(4)
	m := randomCSR(rng, 8, 6, 0.4)
	sub := m.SelectRows([]int{3, 0, 3})
	if sub.Rows != 3 {
		t.Fatalf("sub rows %d", sub.Rows)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m.Cols; j++ {
		if sub.At(0, j) != m.At(3, j) || sub.At(1, j) != m.At(0, j) || sub.At(2, j) != m.At(3, j) {
			t.Fatal("selected rows differ from source")
		}
	}
}

func TestScaleRowsAndRowSums(t *testing.T) {
	rng := testRNG(5)
	m := randomCSR(rng, 6, 6, 0.5)
	sums := m.RowSums()
	f := make([]float64, m.Rows)
	for i := range f {
		f[i] = float64(i + 1)
	}
	m.ScaleRows(f)
	after := m.RowSums()
	for i := range sums {
		if math.Abs(after[i]-sums[i]*f[i]) > 1e-12 {
			t.Fatalf("row %d sum %g, want %g", i, after[i], sums[i]*f[i])
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 1 + rng.IntN(12)
		m := 1 + rng.IntN(12)
		a := randomCSR(rng, n, m, 0.4)
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		y, err := a.MulVec(x)
		if err != nil {
			return false
		}
		d := a.ToDense()
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < m; j++ {
				want += d.At(i, j) * x[j]
			}
			if math.Abs(y[i]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecShape(t *testing.T) {
	m := NewCSR(3, 4)
	if _, err := m.MulVec(make([]float64, 3)); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestSymmetrize(t *testing.T) {
	rng := testRNG(6)
	m := randomCSR(rng, 7, 7, 0.3)
	s, err := m.Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(s.At(i, j)-s.At(j, i)) > 1e-12 {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
			if math.Abs(s.At(i, j)-(m.At(i, j)+m.At(j, i))) > 1e-12 {
				t.Fatalf("wrong value at (%d,%d)", i, j)
			}
		}
	}
	if _, err := NewCSR(2, 3).Symmetrize(); err == nil {
		t.Fatal("rectangular symmetrize accepted")
	}
}

func TestScaleColumnsAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 1 + rng.IntN(15)
		m := 1 + rng.IntN(15)
		a := randomCSR(rng, n, m, 0.3)
		factors := make([]float64, m)
		for j := range factors {
			factors[j] = rng.NormFloat64()
		}
		want := a.ToDense()
		a.ScaleColumns(factors)
		if a.Validate() != nil {
			return false
		}
		got := a.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if math.Abs(want.Data[i*m+j]*factors[j]-got.Data[i*m+j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestColSumsAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 1 + rng.IntN(15)
		m := 1 + rng.IntN(15)
		a := randomCSR(rng, n, m, 0.3)
		d := a.ToDense()
		sums := a.ColSums()
		if len(sums) != m {
			return false
		}
		for j := 0; j < m; j++ {
			var want float64
			for i := 0; i < n; i++ {
				want += d.Data[i*m+j]
			}
			if math.Abs(want-sums[j]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPowElementsAgainstDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 1 + rng.IntN(15)
		a := randomCSR(rng, n, n, 0.35)
		for k := range a.Val {
			a.Val[k] = math.Abs(a.Val[k]) // keep fractional powers real
		}
		p := 0.5 + 3*rng.Float64()
		want := a.ToDense()
		a.PowElements(p)
		if a.Validate() != nil {
			return false
		}
		got := a.ToDense()
		for k := range want.Data {
			w := want.Data[k]
			if w != 0 {
				w = math.Pow(w, p)
			}
			if math.Abs(w-got.Data[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPowElementsIdentityPower(t *testing.T) {
	m := &CSR{Rows: 1, Cols: 3, Ptr: []int{0, 3}, Idx: []int{0, 1, 2}, Val: []float64{-2, 0, 3}}
	m.PowElements(1)
	if m.Val[0] != -2 || m.Val[1] != 0 || m.Val[2] != 3 {
		t.Fatalf("PowElements(1) changed values: %v", m.Val)
	}
}

// TestPowElementsSquareMatchesPow pins the p = 2 fast path to math.Pow
// bit for bit on every class of value: NaN payloads, signed zeros and
// infinities, subnormals, values whose square underflows into or just past
// the subnormal range, values whose square overflows, and random normals
// across the exponent range.
func TestPowElementsSquareMatchesPow(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
		0x1p-511, -0x1p-511, 0x1p-512, 0x1.6a09e667f3bcdp-512, 0x1.6a09e667f3bccp-512,
		0x1p-537, 0x1.8p-530, 1e-160, 1e-200, -1e-170,
		math.MaxFloat64, -math.MaxFloat64, 0x1p512, 0x1.fffffffffffffp511, 1.3407807929942596e154, -1e155,
		1, -1, 0.5, 3, math.Pi, -math.E,
	}
	rng := testRNG(5)
	for i := 0; i < 20000; i++ {
		// Uniform exponents cover the normal, subnormal-square and
		// overflow ranges alike.
		vals = append(vals, math.Float64frombits(rng.Uint64()))
		vals = append(vals, math.Ldexp(1+rng.Float64(), rng.IntN(80)-560))
	}
	m := &CSR{Rows: 1, Cols: len(vals), Ptr: []int{0, len(vals)}, Idx: make([]int, len(vals)),
		Val: append([]float64(nil), vals...)}
	m.PowElements(2)
	for k, v := range vals {
		if want := math.Pow(v, 2); math.Float64bits(m.Val[k]) != math.Float64bits(want) {
			t.Fatalf("PowElements(2) of %v (%#x) = %v (%#x), math.Pow gives %v (%#x)",
				v, math.Float64bits(v), m.Val[k], math.Float64bits(m.Val[k]), want, math.Float64bits(want))
		}
	}
}

func TestPruneDropsExplicitZerosAndNaNs(t *testing.T) {
	// Explicit zeros (e.g. cancellation upstream) must never survive, even
	// with a negative tolerance, and NaNs are dropped too.
	m := &CSR{
		Rows: 2, Cols: 3,
		Ptr: []int{0, 3, 5},
		Idx: []int{0, 1, 2, 0, 2},
		Val: []float64{0, 1e-9, math.NaN(), -0.0, math.Inf(1)},
	}
	for _, tol := range []float64{-1, -1e-300, 0} {
		p := m.Prune(tol)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.NNZ() != 2 {
			t.Fatalf("Prune(%v) kept %d entries, want 2 (1e-9 and +Inf)", tol, p.NNZ())
		}
		if p.At(0, 1) != 1e-9 || !math.IsInf(p.At(1, 2), 1) {
			t.Fatalf("Prune(%v) kept wrong entries", tol)
		}
	}
}
