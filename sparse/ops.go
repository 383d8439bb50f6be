package sparse

import "math"

// Add returns A + B for same-shaped matrices, merging overlapping entries.
func Add(a, b *CSR) (*CSR, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, shapeError("Add", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := NewCSR(a.Rows, a.Cols)
	c.Idx = make([]int, 0, a.NNZ()+b.NNZ())
	c.Val = make([]float64, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.Rows; i++ {
		ai, av := a.Row(i)
		bi, bv := b.Row(i)
		p, q := 0, 0
		for p < len(ai) || q < len(bi) {
			switch {
			case q >= len(bi) || (p < len(ai) && ai[p] < bi[q]):
				c.Idx = append(c.Idx, ai[p])
				c.Val = append(c.Val, av[p])
				p++
			case p >= len(ai) || bi[q] < ai[p]:
				c.Idx = append(c.Idx, bi[q])
				c.Val = append(c.Val, bv[q])
				q++
			default:
				c.Idx = append(c.Idx, ai[p])
				c.Val = append(c.Val, av[p]+bv[q])
				p++
				q++
			}
		}
		c.Ptr[i+1] = len(c.Idx)
	}
	return c, nil
}

// Hadamard returns the element-wise product A ∘ B: only positions stored in
// both matrices survive.
func Hadamard(a, b *CSR) (*CSR, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, shapeError("Hadamard", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := NewCSR(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		ai, av := a.Row(i)
		bi, bv := b.Row(i)
		p, q := 0, 0
		for p < len(ai) && q < len(bi) {
			switch {
			case ai[p] < bi[q]:
				p++
			case bi[q] < ai[p]:
				q++
			default:
				c.Idx = append(c.Idx, ai[p])
				c.Val = append(c.Val, av[p]*bv[q])
				p++
				q++
			}
		}
		c.Ptr[i+1] = len(c.Idx)
	}
	return c, nil
}

// Prune returns a copy of m without entries whose absolute value is at or
// below the tolerance.
//
// Tolerance semantics: an entry survives exactly when |v| > max(tol, 0).
// The threshold test is strict, so Prune(0) drops exact zeros only, and a
// negative tolerance is clamped to zero rather than widening the keep set
// — explicit zeros produced upstream (cancellation in a multiply chain,
// inflation of a zero, a masked-out entry) never survive any Prune call.
// NaN entries fail every comparison and are dropped too, so a pruned
// matrix stores finite nonzeros only (±Inf entries, which compare above
// every tolerance, are kept).
func (m *CSR) Prune(tol float64) *CSR {
	if tol < 0 {
		tol = 0
	}
	c := NewCSR(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		idx, val := m.Row(i)
		for k := range idx {
			if math.Abs(val[k]) > tol {
				c.Idx = append(c.Idx, idx[k])
				c.Val = append(c.Val, val[k])
			}
		}
		c.Ptr[i+1] = len(c.Idx)
	}
	return c
}

// Diagonal returns the main diagonal as a dense slice of length
// min(Rows, Cols).
func (m *CSR) Diagonal() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// SelectRows returns the submatrix consisting of the given rows, in order.
// Row indices must be in range; duplicates are allowed.
func (m *CSR) SelectRows(rows []int) *CSR {
	c := NewCSR(len(rows), m.Cols)
	for out, i := range rows {
		idx, val := m.Row(i)
		c.Idx = append(c.Idx, idx...)
		c.Val = append(c.Val, val...)
		c.Ptr[out+1] = len(c.Idx)
	}
	return c
}

// ScaleRows multiplies row i by f[i] in place. The factor slice must have
// one entry per row.
func (m *CSR) ScaleRows(f []float64) {
	for i := 0; i < m.Rows; i++ {
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			m.Val[k] *= f[i]
		}
	}
}

// ScaleColumns multiplies column j by f[j] in place. The factor slice must
// have one entry per column.
func (m *CSR) ScaleColumns(f []float64) {
	for k := range m.Val {
		m.Val[k] *= f[m.Idx[k]]
	}
}

// ColSums returns the sum of each column's values — the normalization
// vector of a column-stochastic iteration (MCL's inflation step divides
// every column by its sum).
func (m *CSR) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for k := range m.Val {
		out[m.Idx[k]] += m.Val[k]
	}
	return out
}

// PowElements raises every stored value to the power p in place: the
// Hadamard power M∘ᵖ that MCL's inflation applies before renormalizing.
// Exponentiating negative entries to fractional powers produces NaN, which
// a following Prune drops; p = 1 is a no-op. p = 2, MCL's default
// inflation, squares by multiplying wherever the square is a finite
// normal number, where v*v and math.Pow(v, 2) agree to the bit; NaN,
// ±Inf, overflow and subnormal or zero squares keep math.Pow.
func (m *CSR) PowElements(p float64) {
	switch p {
	case 1:
		return
	case 2:
		for k, v := range m.Val {
			if r := v * v; r >= 0x1p-1022 && r <= math.MaxFloat64 {
				m.Val[k] = r
			} else {
				m.Val[k] = math.Pow(v, 2)
			}
		}
		return
	}
	for k := range m.Val {
		m.Val[k] = math.Pow(m.Val[k], p)
	}
}

// RowSums returns the sum of each row's values.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		_, val := m.Row(i)
		var s float64
		for _, v := range val {
			s += v
		}
		out[i] = s
	}
	return out
}

// MulVec returns y = M·x. The vector length must match the column count.
func (m *CSR) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, shapeError("MulVec", m.Rows, m.Cols, len(x), 1)
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		idx, val := m.Row(i)
		var s float64
		for k := range idx {
			s += val[k] * x[idx[k]]
		}
		y[i] = s
	}
	return y, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	m := NewCSR(n, n)
	m.Idx = make([]int, n)
	m.Val = make([]float64, n)
	for i := 0; i < n; i++ {
		m.Idx[i] = i
		m.Val[i] = 1
		m.Ptr[i+1] = i + 1
	}
	return m
}

// Symmetrize returns A ∨ Aᵀ with values summed on overlapping entries —
// the usual way to turn a directed edge list into an undirected adjacency
// matrix. The matrix must be square.
func (m *CSR) Symmetrize() (*CSR, error) {
	if m.Rows != m.Cols {
		return nil, shapeError("Symmetrize", m.Rows, m.Cols, m.Cols, m.Rows)
	}
	return Add(m, m.Transpose())
}
