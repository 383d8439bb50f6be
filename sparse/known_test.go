package sparse

import (
	"math"
	"slices"
	"testing"

	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// TestMultiplyKnownMatchesEngine fills the product structure of A×B with
// the values of A'×B', where A' carries new values (signed zeros among
// them) over A's pattern, and requires the host engine's exact bits on
// one-worker and four-worker executors, with arena poisoning on so a pass
// that read unwritten scratch would show. Every row it merges counts as
// dense, and the row work and symbolic populations the callers supply
// leave the engine's own output unchanged.
func TestMultiplyKnownMatchesEngine(t *testing.T) {
	parallel.SetPoison(true)
	defer parallel.SetPoison(false)
	rng := testRNG(41)
	a := randomCSR(rng, 300, 200, 0.04)
	b := randomCSR(rng, 200, 250, 0.05)
	structure, err := Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	a2 := a.Clone()
	for k := range a2.Val {
		a2.Val[k] = float64(k%7-3) / 4
		if k%11 == 0 {
			a2.Val[k] = math.Copysign(0, -1)
		}
	}
	rowWork, err := IntermediateRowNNZ(a2, b)
	if err != nil {
		t.Fatal(err)
	}
	rowNNZ, err := SymbolicRowNNZWith(a2, b, nil, rowWork)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ex := parallel.NewExecutor(workers)
		want, err := MultiplyConfigured(a2, b, ex, nil, MulConfig{})
		if err != nil {
			t.Fatal(err)
		}
		supplied, err := MultiplyConfigured(a2, b, ex, nil, MulConfig{RowNNZ: rowNNZ, RowWork: rowWork})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		got, err := MultiplyKnown(a2, b, ex, rec, rowWork, rowNNZ, structure.Idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*CSR{supplied, got} {
			if !slices.Equal(m.Ptr, want.Ptr) || !slices.Equal(m.Idx, want.Idx) {
				t.Fatalf("%d workers: structure differs from the engine's", workers)
			}
			for k := range want.Val {
				if math.Float64bits(m.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("%d workers: entry %d = %v, engine %v", workers, k, m.Val[k], want.Val[k])
				}
			}
		}
		var rows int64
		for _, w := range rowWork {
			if w > 0 {
				rows++
			}
		}
		if n := rec.Profile().Counter(trace.CounterAccumDenseRows); n != rows {
			t.Fatalf("%d workers: %d dense rows counted, want %d", workers, n, rows)
		}
	}
}

// TestMultiplyKnownRejectsMisfits: slices that do not fit the operands
// are an error, never a panic or a product.
func TestMultiplyKnownRejectsMisfits(t *testing.T) {
	a := randomCSR(testRNG(43), 40, 40, 0.1)
	c, err := Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	rowWork, err := IntermediateRowNNZ(a, a)
	if err != nil {
		t.Fatal(err)
	}
	rowNNZ, err := SymbolicRowNNZ(a, a)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() error{
		"shape": func() error {
			_, err := MultiplyKnown(a, NewCSR(41, 40), nil, nil, rowWork, rowNNZ, c.Idx)
			return err
		},
		"row work": func() error {
			_, err := MultiplyKnown(a, a, nil, nil, rowWork[1:], rowNNZ, c.Idx)
			return err
		},
		"populations": func() error {
			_, err := MultiplyKnown(a, a, nil, nil, rowWork, rowNNZ[1:], c.Idx)
			return err
		},
		"indices": func() error {
			_, err := MultiplyKnown(a, a, nil, nil, rowWork, rowNNZ, c.Idx[1:])
			return err
		},
	}
	for name, run := range cases {
		if run() == nil {
			t.Errorf("%s misfit accepted", name)
		}
	}
}
