package blockreorg_test

import (
	"context"
	"fmt"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// ExampleMultiply squares a small deterministic matrix and checks the
// numeric result against hand-computed entries.
func ExampleMultiply() {
	// A tiny path graph: 0→1→2.
	a := sparse.NewCSR(3, 3)
	a.Idx = []int{1, 2}
	a.Val = []float64{2, 5}
	a.Ptr = []int{0, 1, 2, 2}

	res, err := blockreorg.Multiply(a, a, blockreorg.Options{})
	if err != nil {
		panic(err)
	}
	// (A²)[0][2] = A[0][1]·A[1][2] = 2·5.
	fmt.Printf("nnz(C)=%d, C[0][2]=%g\n", res.NNZC, res.C.At(0, 2))
	// Output: nnz(C)=1, C[0][2]=10
}

// ExampleSquare shows the classification a power-law graph produces.
func ExampleSquare() {
	g, err := rmat.PowerLaw(5000, 50000, 2.0, 7)
	if err != nil {
		panic(err)
	}
	res, err := blockreorg.Square(g, blockreorg.Options{SkipValues: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("dominators found: %v\n", res.Plan.Dominators > 0)
	fmt.Printf("low performers found: %v\n", res.Plan.LowPerformers > 0)
	// Output:
	// dominators found: true
	// low performers found: true
}

// ExampleResult_Speedup normalizes one algorithm against another, the way
// the paper's figures do.
func ExampleResult_Speedup() {
	g, err := rmat.PowerLawCapped(8000, 80000, 1.9, 32, 3)
	if err != nil {
		panic(err)
	}
	reorg, err := blockreorg.Square(g, blockreorg.Options{SkipValues: true})
	if err != nil {
		panic(err)
	}
	base, err := blockreorg.Square(g, blockreorg.Options{
		Algorithm: blockreorg.RowProduct, SkipValues: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("faster than the baseline: %v\n", reorg.Speedup(base) > 1)
	// Output: faster than the baseline: true
}

// ExampleNewPlan pays the Block Reorganizer preprocessing once and drives a
// multiplication with the cached plan.
func ExampleNewPlan() {
	g, err := rmat.PowerLaw(3000, 30000, 2.0, 11)
	if err != nil {
		panic(err)
	}
	plan, err := blockreorg.NewPlan(g, g, blockreorg.Options{})
	if err != nil {
		panic(err)
	}
	res, err := blockreorg.Multiply(g, g, blockreorg.Options{Plan: plan, SkipValues: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan reused: %v, pairs classified: %v\n",
		res.PlanReused, plan.Summary().Pairs > 0)
	// Output: plan reused: true, pairs classified: true
}

// ExamplePlanCache_Multiply multiplies through a structure-keyed plan
// cache: the first request builds and stores the plan, and a request with
// the same sparsity structure — here the same network re-weighted — rebinds
// it and skips the preprocessing.
func ExamplePlanCache_Multiply() {
	g, err := rmat.PowerLaw(3000, 30000, 2.0, 11)
	if err != nil {
		panic(err)
	}
	h := g.Clone()
	for k := range h.Val {
		h.Val[k] *= 2
	}
	cache := blockreorg.NewPlanCache(8)
	for _, m := range []*sparse.CSR{g, h} {
		fp := m.StructureFingerprint()
		res, err := cache.Multiply(context.Background(), m, m, fp, fp, blockreorg.Options{SkipValues: true})
		if err != nil {
			panic(err)
		}
		fmt.Printf("plan reused: %v\n", res.PlanReused)
	}
	st := cache.Stats()
	fmt.Printf("hits %d, misses %d, entries %d\n", st.Hits, st.Misses, st.Size)
	// Output:
	// plan reused: false
	// plan reused: true
	// hits 1, misses 1, entries 1
}

// ExamplePlan_Rebind carries one preprocessing plan to new operands with the
// same sparsity pattern but different values — the serving layer's
// plan-cache hit.
func ExamplePlan_Rebind() {
	g, err := rmat.PowerLaw(3000, 30000, 2.0, 11)
	if err != nil {
		panic(err)
	}
	plan, err := blockreorg.NewPlan(g, g, blockreorg.Options{})
	if err != nil {
		panic(err)
	}

	// Same structure, re-weighted: the preprocessing is structure-only, so
	// the plan transfers in O(nnz) instead of being rebuilt.
	h := g.Clone()
	for k := range h.Val {
		h.Val[k] *= 2
	}
	bound, err := plan.Rebind(h, h)
	if err != nil {
		panic(err)
	}
	res, err := blockreorg.Multiply(h, h, blockreorg.Options{Plan: bound})
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan reused: %v, nnz preserved: %v\n", res.PlanReused, res.NNZC > 0)
	// Output: plan reused: true, nnz preserved: true
}

// ExampleMultiplyContext bounds a multiplication with a deadline, the way a
// serving layer with per-request timeouts calls the library.
func ExampleMultiplyContext() {
	g, err := rmat.PowerLaw(2000, 20000, 2.1, 5)
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := blockreorg.MultiplyContext(ctx, g, g, blockreorg.Options{SkipValues: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("finished on %s: %v\n", res.Device, res.TotalSeconds > 0)
	// Output: finished on TITAN Xp: true
}

// ExampleCompare runs the full evaluation line-up on one input.
func ExampleCompare() {
	g, err := rmat.PowerLaw(2000, 20000, 2.1, 9)
	if err != nil {
		panic(err)
	}
	results, err := blockreorg.Compare(g, g, blockreorg.TitanXp)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d algorithms evaluated; first is %s\n", len(results), results[0].Algorithm)
	// Output: 7 algorithms evaluated; first is row-product
}
