package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 7)) }

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols, 0)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.Float64()+0.5)
			}
		}
	}
	return coo.ToCSR()
}

func TestClassifyPartitionsPairs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 2 + rng.IntN(30)
		a := randomCSR(rng, n, n, 0.3)
		b := randomCSR(rng, n, n, 0.3)
		cls, err := Classify(a.ToCSC(), b, Params{})
		if err != nil {
			return false
		}
		// Every pair appears in exactly one bin, consistent with Category.
		counted := len(cls.Dominators) + len(cls.Normals) + len(cls.LowPerformers)
		empties := 0
		var work int64
		for k, w := range cls.Work {
			if w == 0 {
				empties++
				if cls.Category[k] != Empty {
					return false
				}
			}
			work += w
		}
		if counted+empties != len(cls.Work) {
			return false
		}
		if work != cls.TotalWork {
			return false
		}
		if cls.ActiveBlocks != len(cls.Work)-empties {
			return false
		}
		// Bin membership matches the rules.
		for _, k := range cls.Dominators {
			if cls.Work[k] <= cls.Threshold {
				return false
			}
		}
		for _, k := range cls.LowPerformers {
			if cls.EffThreads[k] >= WarpSize || cls.Work[k] > cls.Threshold || cls.Work[k] == 0 {
				return false
			}
		}
		for _, k := range cls.Normals {
			if cls.Work[k] == 0 || cls.Work[k] > cls.Threshold || cls.EffThreads[k] < WarpSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifySkewedFindsDominators(t *testing.T) {
	m, err := rmat.PowerLaw(4000, 40000, 2.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := Classify(m.ToCSC(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Dominators) == 0 {
		t.Fatal("no dominators on a power-law matrix")
	}
	if len(cls.LowPerformers) == 0 {
		t.Fatal("no low performers on a power-law matrix")
	}
	// Dominators must be few relative to active blocks (the paper relies
	// on this: "the number of dominator pairs is typically small").
	if len(cls.Dominators)*10 > cls.ActiveBlocks {
		t.Fatalf("dominators %d of %d active blocks — too many", len(cls.Dominators), cls.ActiveBlocks)
	}
}

func TestClassifyAlphaMonotone(t *testing.T) {
	m, _ := rmat.PowerLaw(3000, 30000, 2.2, 5)
	csc := m.ToCSC()
	low, _ := Classify(csc, m, Params{Alpha: 4})
	high, _ := Classify(csc, m, Params{Alpha: 64})
	// Larger alpha -> lower threshold -> at least as many dominators.
	if len(high.Dominators) < len(low.Dominators) {
		t.Fatalf("alpha=64 found %d dominators, alpha=4 found %d", len(high.Dominators), len(low.Dominators))
	}
	if high.Threshold >= low.Threshold {
		t.Fatalf("threshold not decreasing in alpha: %d vs %d", high.Threshold, low.Threshold)
	}
}

func TestClassifyEmptyMatrix(t *testing.T) {
	a := sparse.NewCSR(10, 10)
	cls, err := Classify(a.ToCSC(), a, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if cls.ActiveBlocks != 0 || cls.TotalWork != 0 || len(cls.Dominators) != 0 {
		t.Fatalf("empty classification wrong: %+v", cls)
	}
}

func TestClassifyShapeMismatch(t *testing.T) {
	a := sparse.NewCSR(4, 5).ToCSC()
	b := sparse.NewCSR(6, 4)
	if _, err := Classify(a, b, Params{}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestParamsNormalizeDefaults(t *testing.T) {
	p, err := Params{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Alpha != DefaultAlpha || p.Beta != DefaultBeta || p.BlockSize != DefaultBlockSize ||
		p.MaxSplit != DefaultMaxSplit || p.LimitFactor != DefaultLimitFactor {
		t.Fatalf("defaults wrong: %+v", p)
	}
}

func TestParamsNormalizeRejects(t *testing.T) {
	bad := []Params{
		{Alpha: -1},
		{Beta: -2},
		{BlockSize: 100},          // not a multiple of 32
		{BlockSize: -32},          // negative
		{MaxSplit: 48},            // not a power of two
		{SplitFactorOverride: 3},  // not a power of two
		{SplitFactorOverride: -1}, // negative
		{LimitFactor: -1},         // negative
		{NumSMs: -5},              // negative
		{Alpha: math.NaN()},       // non-finite
		{Alpha: math.Inf(1)},
		{Alpha: math.Inf(-1)},
		{Beta: math.NaN()},
		{Beta: math.Inf(1)},
		{Beta: math.Inf(-1)},
	}
	for i, p := range bad {
		if _, err := p.Normalize(); err == nil {
			t.Errorf("case %d: %+v accepted", i, p)
		}
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{Empty: "empty", LowPerformer: "low-performer", Normal: "normal", Dominator: "dominator"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
	if Category(99).String() == "" {
		t.Error("unknown category empty")
	}
}
