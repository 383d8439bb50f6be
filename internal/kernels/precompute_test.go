package kernels

import (
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func TestPrecomputeMatchesDirect(t *testing.T) {
	rng := testRNG(71)
	a := randomCSR(rng, 40, 30, 0.2)
	b := randomCSR(rng, 30, 50, 0.2)
	pc, err := PrecomputeOn(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	flops, _ := sparse.MultiplyFlops(a, b)
	nnzc, _ := sparse.SymbolicNNZ(a, b)
	if pc.Flops != flops || pc.NNZC != nnzc {
		t.Fatalf("precompute counts %d/%d, want %d/%d", pc.Flops, pc.NNZC, flops, nnzc)
	}
	rowWork, _ := sparse.IntermediateRowNNZ(a, b)
	for i := range rowWork {
		if pc.RowWork[i] != rowWork[i] {
			t.Fatalf("row work mismatch at %d", i)
		}
	}
	if pc.ACSC.NNZ() != a.NNZ() {
		t.Fatal("CSC conversion lost entries")
	}
}

func TestPrecomputeShapeGuards(t *testing.T) {
	if _, err := PrecomputeOn(sparse.NewCSR(2, 3), sparse.NewCSR(4, 2), nil); err == nil {
		t.Fatal("mismatched precompute accepted")
	}
	a := sparse.NewCSR(3, 4)
	b := sparse.NewCSR(4, 5)
	pc, err := PrecomputeOn(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pc.matches(a, b) {
		t.Fatal("precompute does not match its own operands")
	}
	if pc.matches(b, a) {
		t.Fatal("precompute matches wrong operands")
	}
	var nilPC *Precomputed
	if nilPC.matches(a, b) {
		t.Fatal("nil precompute matches")
	}
}

// Results with and without a shared Precomputed must be identical.
func TestPrecomputedResultsIdentical(t *testing.T) {
	m, err := rmat.PowerLaw(3000, 30000, 2.1, 72)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := PrecomputeOn(m, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range All() {
		plain, err := alg.Multiply(m, m, Options{Device: titanOpts().Device, SkipValues: true})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := alg.Multiply(m, m, Options{Device: titanOpts().Device, SkipValues: true, Pre: pc})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Report.TotalSeconds() != cached.Report.TotalSeconds() {
			t.Fatalf("%s: cached run differs: %g vs %g",
				alg.Name(), plain.Report.TotalSeconds(), cached.Report.TotalSeconds())
		}
		if plain.Flops != cached.Flops || plain.NNZC != cached.NNZC {
			t.Fatalf("%s: cached counts differ", alg.Name())
		}
	}
}

// A mismatched cache must be ignored, not trusted.
func TestPrecomputedMismatchIgnored(t *testing.T) {
	a, _ := rmat.PowerLaw(500, 4000, 2.2, 73)
	other, _ := rmat.PowerLaw(600, 4000, 2.2, 74)
	wrongPC, err := PrecomputeOn(other, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := titanOpts()
	opts.Pre = wrongPC
	p, err := RowProduct{}.Multiply(a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sparse.Multiply(a, a)
	if !p.C.Equal(want, 1e-9) {
		t.Fatal("mismatched cache corrupted the result")
	}
}
