package core

import (
	"testing"

	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func TestGatherBinsRespectRanges(t *testing.T) {
	cls, _ := skewedFixture(t, 3000, 24000, 21)
	if len(cls.LowPerformers) == 0 {
		t.Skip("no low performers drawn")
	}
	plan, err := PlanGather(cls, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range plan.Bins {
		if bin.MaxEff < 1 || bin.MaxEff > WarpSize || bin.MaxEff&(bin.MaxEff-1) != 0 {
			t.Fatalf("bin MaxEff %d not a power of two in range", bin.MaxEff)
		}
		if bin.Factor != GatherBlockSize/bin.MaxEff {
			t.Fatalf("bin MaxEff %d factor %d, want %d", bin.MaxEff, bin.Factor, GatherBlockSize/bin.MaxEff)
		}
		lo := bin.MaxEff/2 + 1
		if bin.MaxEff == 1 {
			lo = 1
		}
		for _, k := range bin.Pairs {
			eff := cls.EffThreads[k]
			if eff < lo || eff > bin.MaxEff {
				t.Fatalf("pair %d (eff %d) in bin (%d, %d]", k, eff, bin.MaxEff/2, bin.MaxEff)
			}
		}
	}
}

func TestGatherCoversAllLowPerformersOnce(t *testing.T) {
	cls, _ := skewedFixture(t, 3000, 24000, 22)
	plan, err := PlanGather(cls, Params{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, cb := range plan.Combined {
		if len(cb.Pairs) == 0 || len(cb.Pairs) > GatherBlockSize/cb.MaxEff {
			t.Fatalf("combined block holds %d partitions with MaxEff %d", len(cb.Pairs), cb.MaxEff)
		}
		for _, k := range cb.Pairs {
			seen[k]++
		}
	}
	for _, k := range plan.Ungathered {
		seen[k]++
	}
	if len(seen) != len(cls.LowPerformers) {
		t.Fatalf("plan covers %d pairs, want %d", len(seen), len(cls.LowPerformers))
	}
	for _, k := range cls.LowPerformers {
		if seen[k] != 1 {
			t.Fatalf("pair %d covered %d times", k, seen[k])
		}
	}
	if plan.MicroBlocks() != len(cls.LowPerformers) {
		t.Fatalf("MicroBlocks = %d, want %d", plan.MicroBlocks(), len(cls.LowPerformers))
	}
}

func TestGatherShrinksBlockCount(t *testing.T) {
	// A very sparse power-law matrix has mostly tiny rows; gathering must
	// collapse the block count substantially (this is the entire point).
	m, err := rmat.PowerLaw(6000, 18000, 2.3, 23)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := Classify(m.ToCSC(), m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanGather(cls, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.LowPerformers) < 100 {
		t.Skip("too few low performers to judge")
	}
	if plan.NumBlocks()*3 > len(cls.LowPerformers) {
		t.Fatalf("gathering left %d blocks from %d low performers", plan.NumBlocks(), len(cls.LowPerformers))
	}
}

func TestGatherDisabled(t *testing.T) {
	cls, _ := skewedFixture(t, 2000, 16000, 24)
	plan, err := PlanGather(cls, Params{DisableGather: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Combined) != 0 {
		t.Fatal("disabled gathering still combined blocks")
	}
	if len(plan.Ungathered) != len(cls.LowPerformers) {
		t.Fatalf("ungathered %d, want %d", len(plan.Ungathered), len(cls.LowPerformers))
	}
}

func TestGatherSixteenLanePairsNotGathered(t *testing.T) {
	cls, _ := skewedFixture(t, 3000, 24000, 25)
	plan, err := PlanGather(cls, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs with 17..31 effective threads (bin MaxEff=32, factor 1) must
	// be launched alone.
	for _, cb := range plan.Combined {
		if cb.MaxEff == WarpSize {
			t.Fatal("factor-1 bin was gathered")
		}
	}
	for _, k := range plan.Ungathered {
		if eff := cls.EffThreads[k]; eff <= 16 {
			t.Fatalf("pair %d with eff %d was left ungathered", k, eff)
		}
	}
}
