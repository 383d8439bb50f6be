package kernels

import (
	"testing"

	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// TestReorganizerPlanReuse proves the plan-cache fast path: a run with a
// caller-supplied plan skips the precalculation kernel, reports PlanReused,
// and still produces the exact product — including when the operand values
// (not the structure) changed between plan build and reuse.
func TestReorganizerPlanReuse(t *testing.T) {
	a, err := rmat.PowerLaw(400, 6000, 2.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpusim.ByName("TITAN Xp")
	if err != nil {
		t.Fatal(err)
	}

	first, err := Reorganizer{}.Multiply(a, a, Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan == nil {
		t.Fatal("cold run did not expose its plan for caching")
	}
	if first.PlanReused {
		t.Fatal("cold run claims plan reuse")
	}

	// Fresh operand objects with new values over the same structure —
	// what a serving-layer cache hit looks like.
	a2 := a.Clone()
	a2.Scale(2)
	plan, err := first.Plan.Rebind(a2, a2)
	if err != nil {
		t.Fatal(err)
	}
	// The plan is the whole reusable handle: it carries the symbolic
	// analysis, so the warm run needs no Options.Pre.
	second, err := Reorganizer{}.Multiply(a2, a2, Options{Device: dev, Plan: plan, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanReused {
		t.Fatal("warm run did not reuse the supplied plan")
	}
	if second.Flops != first.Flops || second.NNZC != first.NNZC {
		t.Fatalf("warm run counts flops %d, nnz %d; cold run %d, %d",
			second.Flops, second.NNZC, first.Flops, first.NNZC)
	}
	skipped, err := Reorganizer{}.Multiply(a2, a2, Options{Device: dev, Plan: plan, SkipValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped.C != nil || skipped.Flops != first.Flops || skipped.NNZC != first.NNZC {
		t.Fatalf("warm symbolic run: C %v, flops %d, nnz %d; want nil, %d, %d",
			skipped.C != nil, skipped.Flops, skipped.NNZC, first.Flops, first.NNZC)
	}

	// The precalculation kernel must be absent from the warm report and
	// present in the cold one.
	countPrecalc := func(p *Product) int {
		n := 0
		for _, k := range p.Report.Kernels {
			if k.Phase == gpusim.PhasePre {
				n++
			}
		}
		return n
	}
	if countPrecalc(first) == 0 {
		t.Fatal("cold run billed no precalculation kernel")
	}
	if countPrecalc(second) != 0 {
		t.Fatal("warm run still billed the precalculation kernel")
	}
	if second.Report.TotalSeconds() >= first.Report.TotalSeconds() {
		t.Fatalf("warm run not faster: %g vs %g", second.Report.TotalSeconds(), first.Report.TotalSeconds())
	}

	// Numeric correctness against the reference for the NEW values.
	want, err := RowProduct{}.Multiply(a2, a2, Options{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if !second.C.Equal(want.C, 1e-9) {
		t.Fatal("warm run produced the wrong product for the rebound values")
	}

	// A reused plan ignores Options.Pre, even an analysis of other
	// operands of the same shape.
	other, err := rmat.PowerLaw(400, 6000, 2.1, 12)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := PrecomputeOn(other, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	withPre, err := Reorganizer{}.Multiply(a2, a2, Options{Device: dev, Plan: plan, Pre: wrong})
	if err != nil {
		t.Fatal(err)
	}
	if !withPre.C.Equal(want.C, 1e-9) {
		t.Fatal("a reused plan took its analysis from Options.Pre")
	}

	// A plan not bound to the operands must be ignored, not misused.
	third, err := Reorganizer{}.Multiply(a, a, Options{Device: dev, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if third.PlanReused {
		t.Fatal("run reused a plan bound to different operands")
	}
}
