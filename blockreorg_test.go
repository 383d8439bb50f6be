package blockreorg

import (
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func TestMultiplyDefaults(t *testing.T) {
	a, err := rmat.PowerLaw(2000, 20000, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Multiply(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != BlockReorganizer || res.Device != "TITAN Xp" {
		t.Fatalf("defaults wrong: %s on %s", res.Algorithm, res.Device)
	}
	want, err := sparse.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	// Bitwise, not approximate: the engine's canonical merge order makes
	// the planned path reproduce the Gustavson reference exactly (the
	// contract the out-of-core tiler relies on).
	if res.C == nil || !res.C.Equal(want, 0) {
		t.Fatal("product differs from reference")
	}
	if res.TotalSeconds <= 0 || res.GFLOPS <= 0 {
		t.Fatalf("timing empty: %+v", res)
	}
	if res.ExpansionSeconds <= 0 || res.MergeSeconds <= 0 {
		t.Fatal("phase split missing")
	}
	if res.Plan == nil || res.Plan.Pairs != 2000 {
		t.Fatalf("plan summary missing: %+v", res.Plan)
	}
	if res.ExpansionLBI <= 0 || res.ExpansionLBI > 1 {
		t.Fatalf("LBI out of range: %g", res.ExpansionLBI)
	}
}

func TestSquareEqualsMultiply(t *testing.T) {
	a, _ := rmat.PowerLaw(500, 4000, 2.2, 8)
	m, err := Multiply(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Square(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.C.Equal(s.C, 0) || m.TotalSeconds != s.TotalSeconds {
		t.Fatal("Square differs from Multiply(a, a)")
	}
}

func TestMultiplyUnknownOptions(t *testing.T) {
	a := sparse.NewCSR(4, 4)
	if _, err := Multiply(a, a, Options{Algorithm: "magma"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Multiply(a, a, Options{GPU: "Voodoo2"}); err == nil {
		t.Fatal("unknown GPU accepted")
	}
}

func TestAllAlgorithmsViaFacade(t *testing.T) {
	a, _ := rmat.PowerLaw(800, 6000, 2.2, 9)
	want, _ := sparse.Multiply(a, a)
	for _, alg := range Algorithms() {
		res, err := Multiply(a, a, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !res.C.Equal(want, 1e-9) {
			t.Fatalf("%s: wrong product", alg)
		}
	}
	if len(Algorithms()) != 7 || len(Devices()) != 3 {
		t.Fatal("catalog sizes wrong")
	}
}

func TestCompareAndSpeedup(t *testing.T) {
	a, _ := rmat.PowerLaw(3000, 30000, 2.05, 10)
	results, err := Compare(a, a, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("Compare returned %d results", len(results))
	}
	var base, reorg *Result
	for _, r := range results {
		if r.C != nil {
			t.Fatalf("%s: Compare should skip values", r.Algorithm)
		}
		switch r.Algorithm {
		case RowProduct:
			base = r
		case BlockReorganizer:
			reorg = r
		}
	}
	if base == nil || reorg == nil {
		t.Fatal("missing baseline or reorganizer result")
	}
	if sp := reorg.Speedup(base); sp <= 1 {
		t.Fatalf("reorganizer speedup %.2f on skewed input", sp)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	a, _ := rmat.PowerLaw(3000, 30000, 2.05, 11)
	full, err := Multiply(a, a, Options{SkipValues: true})
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := Multiply(a, a, Options{SkipValues: true, DisableSplit: true, DisableGather: true, DisableLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	if ablated.Plan.SplitBlocks < ablated.Plan.Dominators {
		t.Fatal("disabled split still split blocks")
	}
	if ablated.Plan.CombinedBlocks != 0 {
		t.Fatal("disabled gather still combined blocks")
	}
	if full.TotalSeconds >= ablated.TotalSeconds {
		// On skewed input the full pass must beat the ablated one.
		t.Fatalf("full pass (%.3fms) not faster than ablated (%.3fms)",
			full.TotalSeconds*1e3, ablated.TotalSeconds*1e3)
	}
	forced, err := Multiply(a, a, Options{SkipValues: true, SplitFactor: 8})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Plan.Dominators > 0 && forced.Plan.SplitBlocks > forced.Plan.Dominators*8 {
		t.Fatalf("split factor 8 produced %d blocks for %d dominators",
			forced.Plan.SplitBlocks, forced.Plan.Dominators)
	}
}

func TestDevicesDiffer(t *testing.T) {
	a, _ := rmat.PowerLaw(4000, 40000, 2.1, 12)
	var times []float64
	for _, gpu := range Devices() {
		res, err := Multiply(a, a, Options{GPU: gpu, SkipValues: true})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.TotalSeconds)
	}
	// V100 (80 SMs, 900 GB/s) must beat the Titan Xp on the same load.
	if times[1] >= times[0] {
		t.Fatalf("V100 (%.3fms) not faster than Titan Xp (%.3fms)", times[1]*1e3, times[0]*1e3)
	}
}
