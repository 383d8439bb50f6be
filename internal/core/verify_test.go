package core

import (
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// denseOnes builds an n×n all-ones CSR: every pair has workload n², so
// classification extremes are easy to force through Alpha.
func denseOnes(n int) *sparse.CSR {
	m := sparse.NewCSR(n, n)
	idx := make([]int, n)
	val := make([]float64, n)
	for j := 0; j < n; j++ {
		idx[j], val[j] = j, 1
	}
	for i := 0; i < n; i++ {
		m.AppendRow(i, idx, val)
	}
	return m
}

func mustPlan(t *testing.T, a, b *sparse.CSR, p Params) *Plan {
	t.Helper()
	plan, err := BuildPlan(a, b, p)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	return plan
}

func TestVerifyPlanRMAT(t *testing.T) {
	m, err := rmat.PowerLaw(1200, 18000, 2.05, 41)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, m, m, Params{})
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("VerifyPlan on a freshly built plan: %v", err)
	}
	if err := VerifyPlanOnDevice(plan, 96*1024); err != nil {
		t.Fatalf("VerifyPlanOnDevice with 96KB: %v", err)
	}
}

func TestVerifyPlanEmptyMatrix(t *testing.T) {
	for name, n := range map[string]int{"zero-dim": 0, "no entries": 5} {
		a := sparse.NewCSR(n, n)
		plan := mustPlan(t, a, a, Params{})
		if err := VerifyPlan(plan); err != nil {
			t.Errorf("%s: VerifyPlan = %v", name, err)
		}
	}
}

func TestVerifyPlanSingleRowAndColumn(t *testing.T) {
	// row vector (1×4) times column vector (4×1): one pair per column of A.
	row := sparse.NewCSR(1, 4)
	row.AppendRow(0, []int{0, 1, 2, 3}, []float64{1, 2, 3, 4})
	col := sparse.NewCSR(4, 1)
	for i := 0; i < 4; i++ {
		col.AppendRow(i, []int{0}, []float64{1})
	}
	plan := mustPlan(t, row, col, Params{})
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("row×col: %v", err)
	}
	plan = mustPlan(t, col, row, Params{})
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("col×row: %v", err)
	}
}

func TestVerifyPlanAllDominators(t *testing.T) {
	m := denseOnes(4)
	// Huge Alpha drives the threshold to its floor of 1; every pair's
	// workload of 16 exceeds it, so all pairs split.
	plan := mustPlan(t, m, m, Params{Alpha: 1e9})
	if got := len(plan.Cls.Dominators); got != 4 {
		t.Fatalf("want all 4 pairs dominator, got %d", got)
	}
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("all-dominator plan: %v", err)
	}
}

func TestVerifyPlanAllLowPerformers(t *testing.T) {
	m := denseOnes(4)
	// Tiny Alpha pushes the threshold above every workload; with 4
	// effective threads (< warp size) every pair is a low performer.
	plan := mustPlan(t, m, m, Params{Alpha: 1e-9})
	if got := len(plan.Cls.LowPerformers); got != 4 {
		t.Fatalf("want all 4 pairs low performers, got %d", got)
	}
	if len(plan.Split.Blocks) != 0 {
		t.Fatalf("low-performer plan has %d split blocks", len(plan.Split.Blocks))
	}
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("all-low-performer plan: %v", err)
	}
}

// TestVerifyPlanDetectsMapperCorruption is the headline guarantee: a
// corrupted mapper entry — the array that tells the merge stage which
// output column each split block belongs to — must not verify.
func TestVerifyPlanDetectsMapperCorruption(t *testing.T) {
	m := denseOnes(4)
	plan := mustPlan(t, m, m, Params{Alpha: 1e9})
	if len(plan.Split.Mapper) < 2 {
		t.Fatalf("fixture produced only %d split blocks", len(plan.Split.Mapper))
	}
	good := plan.Split.Mapper[0]
	plan.Split.Mapper[0] = plan.Split.Mapper[len(plan.Split.Mapper)-1]
	if plan.Split.Mapper[0] == good {
		t.Fatal("corruption did not change the entry")
	}
	err := VerifyPlan(plan)
	if err == nil {
		t.Fatal("VerifyPlan accepted a corrupted mapper")
	}
	if !strings.Contains(err.Error(), "mapper") {
		t.Fatalf("error does not implicate the mapper: %v", err)
	}
	plan.Split.Mapper[0] = good
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("restored plan no longer verifies: %v", err)
	}
}

func TestVerifyPlanDetectsAPrimeCorruption(t *testing.T) {
	m, err := rmat.PowerLaw(800, 12000, 2.0, 43)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, m, m, Params{Alpha: 1e6})
	if plan.Split.APrime == nil || plan.Split.APrime.NNZ() == 0 {
		t.Fatal("fixture produced no split elements")
	}
	// Flip one A′ value: nnz is conserved, structure is intact, only the
	// bitwise chunk comparison can catch it.
	idx, val := plan.Split.APrime.Col(0)
	_ = idx
	val[0] += 1
	if err := VerifyPlan(plan); err == nil {
		t.Fatal("VerifyPlan accepted a corrupted A' value")
	}
}

func TestVerifyPlanDetectsWorkloadCorruption(t *testing.T) {
	m, err := rmat.PowerLaw(600, 7000, 2.1, 44)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, m, m, Params{})

	plan.Cls.Work[0]++
	if err := VerifyPlan(plan); err == nil {
		t.Fatal("VerifyPlan accepted a corrupted block-wise workload")
	}
	plan.Cls.Work[0]--

	plan.Limit.RowWork[0]++
	if err := VerifyPlan(plan); err == nil {
		t.Fatal("VerifyPlan accepted a corrupted row-wise population (nnz(Ĉ) conservation)")
	}
	plan.Limit.RowWork[0]--

	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("restored plan no longer verifies: %v", err)
	}
}

func TestVerifyPlanDetectsRowNNZCorruption(t *testing.T) {
	m, err := rmat.PowerLaw(300, 3000, 2.1, 46)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, m, m, Params{})
	rowNNZ := plan.RowNNZ
	plan.RowNNZ = rowNNZ[:len(rowNNZ)-1]
	if err := VerifyPlan(plan); err == nil || !strings.Contains(err.Error(), "row populations") {
		t.Fatalf("VerifyPlan accepted a short RowNNZ: %v", err)
	}
	plan.RowNNZ = nil
	if err := VerifyPlan(plan); err == nil {
		t.Fatal("VerifyPlan accepted a plan without RowNNZ")
	}
	plan.RowNNZ = rowNNZ
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("restored plan no longer verifies: %v", err)
	}
}

func TestVerifyPlanDetectsGatherCorruption(t *testing.T) {
	m := denseOnes(4)
	plan := mustPlan(t, m, m, Params{Alpha: 1e-9})
	if len(plan.Gather.Combined) == 0 {
		t.Fatal("fixture produced no combined blocks")
	}
	// Duplicate a gathered pair: coverage is no longer a bijection.
	cb := &plan.Gather.Combined[0]
	cb.Pairs = append(cb.Pairs, cb.Pairs[0])
	if err := VerifyPlan(plan); err == nil {
		t.Fatal("VerifyPlan accepted a twice-gathered pair")
	}
}

func TestVerifyPlanOnDeviceSharedMemBound(t *testing.T) {
	m, err := rmat.PowerLaw(1000, 15000, 2.0, 45)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, m, m, Params{LimitFactor: 8})
	if err := VerifyPlan(plan); err != nil {
		t.Fatalf("VerifyPlan: %v", err)
	}
	if plan.Limit.ExtraSharedMem == 0 {
		t.Skip("no extra shared memory requested by this fixture")
	}
	if err := VerifyPlanOnDevice(plan, plan.Limit.ExtraSharedMem-1); err == nil {
		t.Fatal("VerifyPlanOnDevice accepted a demand over the per-block limit")
	}
	if err := VerifyPlanOnDevice(plan, plan.Limit.ExtraSharedMem); err != nil {
		t.Fatalf("VerifyPlanOnDevice rejected a fitting demand: %v", err)
	}
}

func TestVerifyPlanNil(t *testing.T) {
	if err := VerifyPlan(nil); err == nil {
		t.Fatal("nil plan verified")
	}
	if err := VerifyPlan(&Plan{}); err == nil {
		t.Fatal("phase-less plan verified")
	}
}
