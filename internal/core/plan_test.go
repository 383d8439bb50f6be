package core

import (
	"testing"
	"testing/quick"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// intermediateRowNNZ returns the row-wise intermediate populations of m².
func intermediateRowNNZ(t *testing.T, m *sparse.CSR) []int64 {
	t.Helper()
	rowWork, err := sparse.IntermediateRowNNZ(m, m)
	if err != nil {
		t.Fatal(err)
	}
	return rowWork
}

func TestPlanLimitSelectsLongRows(t *testing.T) {
	cls, in := skewedFixture(t, 3000, 45000, 31)
	rowWork := intermediateRowNNZ(t, in.csr)
	plan, err := PlanLimitFrom(rowWork, cls, Params{})
	if err != nil {
		t.Fatal(err)
	}
	limited := make(map[int]bool, len(plan.Limited))
	var work int64
	for _, i := range plan.Limited {
		limited[i] = true
		work += rowWork[i]
	}
	for i, w := range rowWork {
		if (w > plan.Threshold) != limited[i] {
			t.Fatalf("row %d (work %d, threshold %d) limited=%v", i, w, plan.Threshold, limited[i])
		}
	}
	if work != plan.LimitedWork {
		t.Fatalf("LimitedWork %d, want %d", plan.LimitedWork, work)
	}
	if plan.ExtraSharedMem != DefaultLimitFactor*LimitUnit {
		t.Fatalf("ExtraSharedMem = %d", plan.ExtraSharedMem)
	}
}

func TestPlanLimitDisabled(t *testing.T) {
	cls, in := skewedFixture(t, 2000, 30000, 32)
	plan, err := PlanLimitFrom(intermediateRowNNZ(t, in.csr), cls, Params{DisableLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Limited) != 0 {
		t.Fatal("disabled limiting still limited rows")
	}
	if len(plan.RowWork) != in.csr.Rows {
		t.Fatal("row populations missing when disabled")
	}
}

func TestPlanLimitFactorScalesSharedMem(t *testing.T) {
	cls, in := skewedFixture(t, 1000, 15000, 33)
	rowWork := intermediateRowNNZ(t, in.csr)
	for factor := 1; factor <= 7; factor++ {
		plan, err := PlanLimitFrom(rowWork, cls, Params{LimitFactor: factor})
		if err != nil {
			t.Fatal(err)
		}
		if plan.ExtraSharedMem != factor*LimitUnit {
			t.Fatalf("factor %d: extra smem %d", factor, plan.ExtraSharedMem)
		}
	}
}

// The central fidelity property: executing the reorganized block structure
// yields exactly the reference product, on random matrices.
func TestPlanExecuteMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 2 + rng.IntN(40)
		m := 2 + rng.IntN(40)
		a := randomCSR(rng, n, m, 0.2)
		b := randomCSR(rng, m, n, 0.2)
		plan, err := BuildPlan(a, b, Params{})
		if err != nil {
			return false
		}
		got, err := plan.Execute(0)
		if err != nil {
			return false
		}
		want, err := sparse.Multiply(a, b)
		if err != nil {
			return false
		}
		return got.ToDense().Equal(want.ToDense(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Same fidelity property on a skewed matrix that actually triggers all
// three bins (dominators, normals, low performers).
func TestPlanExecuteSkewedAllBins(t *testing.T) {
	m, err := rmat.PowerLaw(1200, 18000, 2.05, 35)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(m, m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Dominators == 0 || st.LowPerformers == 0 || st.Normals == 0 {
		t.Skipf("fixture did not populate all bins: %+v", st)
	}
	got, err := plan.Execute(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sparse.Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("shape/nnz mismatch: got %d nnz, want %d", got.NNZ(), want.NNZ())
	}
	if !got.Equal(want, 1e-9) {
		t.Fatal("reorganized product differs from reference")
	}
}

// Ablation combinations must all preserve the product.
func TestPlanExecuteWithTogglesMatchesReference(t *testing.T) {
	m, err := rmat.PowerLaw(800, 9000, 2.1, 36)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sparse.Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	combos := []Params{
		{DisableSplit: true},
		{DisableGather: true},
		{DisableLimit: true},
		{DisableSplit: true, DisableGather: true, DisableLimit: true},
		{SplitFactorOverride: 4},
		{Alpha: 2}, {Alpha: 64},
	}
	for i, p := range combos {
		plan, err := BuildPlan(m, m, p)
		if err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
		got, err := plan.Execute(0)
		if err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("combo %d (%+v) changed the product", i, p)
		}
	}
}

// Every pair with work appears in the visited blocks with exact element
// coverage.
func TestVisitBlocksCoverage(t *testing.T) {
	cls, in := skewedFixture(t, 1500, 20000, 37)
	plan, err := BuildPlan(in.csr, in.csr, Params{})
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, in.csr.Cols) // elements covered per pair
	visits := make(map[BlockKind]int)
	plan.VisitBlocks(func(kind BlockKind, parts []Partition) {
		visits[kind]++
		for _, part := range parts {
			covered[part.Pair] += part.ColHi - part.ColLo
		}
	})
	for k, w := range cls.Work {
		want := 0
		if w > 0 {
			want = plan.ACSC.ColNNZ(k)
		}
		if covered[k] != want {
			t.Fatalf("pair %d covered %d elements, want %d", k, covered[k], want)
		}
	}
	if visits[KindSplit] != plan.Split.NumBlocks() {
		t.Fatalf("split visits %d, want %d", visits[KindSplit], plan.Split.NumBlocks())
	}
	if visits[KindGathered] != len(plan.Gather.Combined) {
		t.Fatalf("gathered visits %d, want %d", visits[KindGathered], len(plan.Gather.Combined))
	}
}

func TestPlanExecuteGuard(t *testing.T) {
	m, _ := rmat.PowerLaw(500, 5000, 2.2, 38)
	plan, err := BuildPlan(m, m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(1); err == nil {
		t.Fatal("intermediate guard did not trip")
	}
}

func TestBuildPlanNilOperand(t *testing.T) {
	if _, err := BuildPlan(nil, nil, Params{}); err == nil {
		t.Fatal("nil operands accepted")
	}
}

func TestPlanStatsConsistent(t *testing.T) {
	cls, in := skewedFixture(t, 1500, 22000, 39)
	plan, err := BuildPlan(in.csr, in.csr, Params{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Dominators != len(cls.Dominators) && st.TotalWork != cls.TotalWork {
		t.Fatalf("stats inconsistent with classification: %+v", st)
	}
	if st.Pairs != in.csr.Cols {
		t.Fatalf("pairs %d, want %d", st.Pairs, in.csr.Cols)
	}
	if plan.NumBlocks() != st.SplitBlocks+st.Normals+st.CombinedBlocks+st.UngatheredLows {
		t.Fatal("NumBlocks disagrees with stats")
	}
}

func TestBlockKindString(t *testing.T) {
	kinds := map[BlockKind]string{KindNormal: "normal", KindSplit: "split", KindGathered: "gathered", KindUngathered: "ungathered"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}

// Plans built under every policy combination must validate.
func TestPlanValidate(t *testing.T) {
	m, err := rmat.PowerLaw(1500, 18000, 2.05, 91)
	if err != nil {
		t.Fatal(err)
	}
	combos := []Params{
		{},
		{DisableSplit: true},
		{DisableGather: true},
		{SplitFactorOverride: 16},
	}
	for i, p := range combos {
		plan, err := BuildPlan(m, m, p)
		if err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
	}
	// A corrupted plan must be caught.
	plan, _ := BuildPlan(m, m, Params{})
	if len(plan.Split.Mapper) > 0 {
		plan.Split.Mapper[0]++
		if err := plan.Validate(); err == nil {
			t.Fatal("corrupted mapper accepted")
		}
	}
}

// BuildPlanCached takes its analysis as given: a missing or misshapen
// piece is an error, never recomputed and never a panic.
func TestBuildPlanCachedRejectsMisfitAnalysis(t *testing.T) {
	m, err := rmat.PowerLaw(300, 3000, 2.1, 47)
	if err != nil {
		t.Fatal(err)
	}
	acsc := m.ToCSC()
	rowWork := intermediateRowNNZ(t, m)
	rowNNZ, err := sparse.SymbolicRowNNZOn(m, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlanCached(m, acsc, m, rowWork, rowNNZ, Params{}); err != nil {
		t.Fatalf("fitting analysis rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		acsc    *sparse.CSC
		rowWork []int64
		rowNNZ  []int
	}{
		{"nil CSC", nil, rowWork, rowNNZ},
		{"CSC of another shape", m.RowPanel(0, 10).ToCSC(), rowWork, rowNNZ},
		{"nil row work", acsc, nil, rowNNZ},
		{"short row work", acsc, rowWork[1:], rowNNZ},
		{"nil row populations", acsc, rowWork, nil},
		{"long row populations", acsc, rowWork, append(rowNNZ, 0)},
	} {
		if _, err := BuildPlanCached(m, tc.acsc, m, tc.rowWork, tc.rowNNZ, Params{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
