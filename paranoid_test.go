package blockreorg

import (
	"math"
	"os"
	"testing"

	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// TestParanoidAllAlgorithms is the sanitizer acceptance run: every
// algorithm multiplies an R-MAT input with the full deep-check layer on —
// operand CheckDeep, plan verification, and per-grid kernel checks — and
// must produce the reference product with no sanitizer complaint.
func TestParanoidAllAlgorithms(t *testing.T) {
	a, err := rmat.PowerLaw(1500, 18000, 2.05, 57)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sparse.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	algs := Algorithms()
	if len(algs) != 7 {
		t.Fatalf("expected 7 algorithms, got %d", len(algs))
	}
	for _, alg := range algs {
		res, err := Multiply(a, a, Options{Algorithm: alg, Paranoid: true})
		if err != nil {
			t.Errorf("%s with Paranoid: %v", alg, err)
			continue
		}
		if !res.C.Equal(want, 1e-9) {
			t.Errorf("%s with Paranoid: product differs from reference", alg)
		}
	}
}

// TestParanoidPoisonedArenaReuse closes the loop on buffer recycling:
// with poisoning forced on, every buffer returned to the arenas is filled
// with NaN / out-of-range sentinels before a later Get can hand it out
// again. Repeated multiplies therefore run almost entirely on recycled,
// poisoned scratch — if any kernel read a recycled value it did not
// initialize, the NaN would propagate into the product or the sentinel
// index would corrupt the structure, and the comparison (or Paranoid's
// deep checks) would catch it.
func TestParanoidPoisonedArenaReuse(t *testing.T) {
	parallel.SetPoison(true)
	defer parallel.SetPoison(false)

	a, err := rmat.PowerLaw(1200, 15000, 2.05, 59)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sparse.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	// A multi-worker executor forces the chunked Gustavson engine, whose
	// accumulators, markers and index buffers all cycle through the
	// arenas.
	ex := parallel.NewExecutor(4)
	for iter := 0; iter < 3; iter++ {
		got, err := sparse.MultiplyConfigured(a, a, ex, nil, sparse.MulConfig{Accum: sparse.AccumDense})
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("iteration %d: poisoned-arena MultiplyConfigured diverged", iter)
		}
		res, err := Multiply(a, a, Options{Paranoid: true})
		if err != nil {
			t.Fatalf("iteration %d: Reorganizer with Paranoid: %v", iter, err)
		}
		if !res.C.Equal(want, 1e-9) {
			t.Fatalf("iteration %d: poisoned-arena Reorganizer diverged", iter)
		}
	}
}

// TestParanoidRejectsCorruptOperand proves the flag has teeth: an operand
// whose values are corrupted in a way shallow validation cannot see is
// accepted without Paranoid and rejected with it.
func TestParanoidRejectsCorruptOperand(t *testing.T) {
	a, err := rmat.PowerLaw(300, 2500, 2.2, 58)
	if err != nil {
		t.Fatal(err)
	}
	a.Val[0] = math.NaN()
	if os.Getenv("BLOCKREORG_PARANOID") == "" {
		// With the environment override every run is paranoid, so the
		// accepted-without-Paranoid half only holds without it.
		if _, err := Multiply(a, a, Options{}); err != nil {
			t.Fatalf("non-paranoid run should not inspect values: %v", err)
		}
	}
	if _, err := Multiply(a, a, Options{Paranoid: true}); err == nil {
		t.Fatal("Paranoid run accepted a NaN operand")
	}
}
