package core_test

import (
	"testing"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

// accumKinds is every requestable strategy, the per-row selector included.
var accumKinds = []sparse.AccumulatorKind{
	sparse.AccumAuto, sparse.AccumDense, sparse.AccumHash, sparse.AccumSort,
}

// TestAccumGridBitIdentical sweeps the Table II grid (downscaled) and
// requires the Block Reorganizer's product to equal both oracles exactly —
// tolerance zero — under every accumulator strategy, on one-worker and
// six-worker executors, for a freshly built plan and for a plan rebound to
// new values over the same structure. The oracles are the sequential
// sparse.Multiply and the plan's block walk (core.Plan.Execute); the host
// engine and both oracles sum every entry in the same canonical order, and
// every strategy accumulates each column's products in that order, so all
// of them agree to the bit. The grid spans regular meshes and hub-skewed
// networks, so the hash tables, the stable sort-combine and the per-row
// selector all see both families.
func TestAccumGridBitIdentical(t *testing.T) {
	const scale = 100
	dev := gpusim.TitanXp()
	executors := []*parallel.Executor{parallel.NewExecutor(1), parallel.NewExecutor(6)}
	for _, spec := range datasets.RealWorld() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Generate(scale)
			if err != nil {
				t.Fatal(err)
			}
			// The rebound operand keeps m's structure with new values.
			r := m.Clone()
			for k := range r.Val {
				r.Val[k] = 0.75*r.Val[k] + 0.125
			}
			for _, rebound := range []bool{false, true} {
				a := m
				if rebound {
					a = r
				}
				want, err := sparse.Multiply(a, a)
				if err != nil {
					t.Fatal(err)
				}
				// The block structure does not depend on the accumulator,
				// so one walk serves every strategy.
				walkPlan, err := core.BuildPlan(a, a, core.Params{NumSMs: dev.NumSMs})
				if err != nil {
					t.Fatal(err)
				}
				walk, err := walkPlan.Execute(0)
				if err != nil {
					t.Fatal(err)
				}
				if !walk.Identical(want) {
					t.Fatalf("rebound=%v: Execute not bit-identical to Multiply", rebound)
				}
				// The plan holds structure only, so one rebound plan
				// drives the run under every strategy.
				var plan *core.Plan
				if rebound {
					built, err := core.BuildPlan(m, m, core.Params{NumSMs: dev.NumSMs})
					if err != nil {
						t.Fatal(err)
					}
					if plan, err = built.Rebind(r, r); err != nil {
						t.Fatal(err)
					}
				}
				for _, kind := range accumKinds {
					for _, ex := range executors {
						opts := kernels.Options{Device: dev, Exec: ex, Accumulator: kind, Plan: plan}
						prod, err := kernels.Reorganizer{}.Multiply(a, a, opts)
						if err != nil {
							t.Fatalf("%v workers=%d rebound=%v: %v", kind, ex.Workers(), rebound, err)
						}
						if prod.PlanReused != rebound {
							t.Fatalf("%v workers=%d: plan reused = %v, want %v",
								kind, ex.Workers(), prod.PlanReused, rebound)
						}
						if err := prod.C.Validate(); err != nil {
							t.Fatalf("%v workers=%d rebound=%v: %v", kind, ex.Workers(), rebound, err)
						}
						if !prod.C.Identical(want) || !prod.C.Identical(walk) {
							t.Fatalf("%v workers=%d rebound=%v: Reorganizer product not bit-identical to Multiply and Execute",
								kind, ex.Workers(), rebound)
						}
					}
				}
			}
		})
	}
}
