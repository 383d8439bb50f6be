package kernels

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// TestKnownStructureHitGridBitIdentical sweeps the Table II grid at scale
// 32 through the Reorganizer's host product (the simulated kernels do not
// depend on it): a cold run keeps its product's column indices in its
// plan, and a hit on that plan rebound to new values fills them without
// merging — its product must equal, bit for bit, the product a cold run
// computes from the new values, and every row it merged must count as
// dense. The datasets take the four accumulators in turn, so each one's
// cold merge feeds the plans of seven datasets of both families; the hit
// itself runs the same pass under all four. Running every dataset under
// every accumulator took 140 s under ci.sh's race and Paranoid gate.
func TestKnownStructureHitGridBitIdentical(t *testing.T) {
	kinds := []sparse.AccumulatorKind{sparse.AccumAuto, sparse.AccumDense, sparse.AccumHash, sparse.AccumSort}
	cold := func(m *sparse.CSR, opts Options) (*core.Plan, *sparse.CSR) {
		t.Helper()
		plan, err := BuildPlan(m, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := hostProduct(m, m, plan, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		return plan, c
	}
	for d, spec := range datasets.RealWorld() {
		m, err := spec.Generate(32)
		if err != nil {
			t.Fatal(err)
		}
		m2 := m.Clone()
		for k := range m2.Val {
			m2.Val[k] = 0.75*m2.Val[k] - 0.125
		}
		kind := kinds[d%len(kinds)]
		opts := titanOpts()
		opts.Accumulator = kind
		plan, c := cold(m, opts)
		if !slices.Equal(plan.CIdx, c.Idx) {
			t.Fatalf("%s/%v: the cold run's plan does not hold its product's column indices", spec.Name, kind)
		}
		_, want := cold(m2, opts)
		bound, err := plan.Rebind(m2, m2)
		if err != nil {
			t.Fatal(err)
		}
		opts.Trace = trace.New()
		hit, err := hostProduct(m2, m2, bound, true, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDifferingRow(hit, want); i >= 0 {
			t.Fatalf("%s/%v: hit product row %d differs from a cold run's", spec.Name, kind, i)
		}
		prof := opts.Trace.Profile()
		if n := prof.Counter(trace.CounterAccumSortRows); n != 0 {
			t.Fatalf("%s/%v: a known-structure hit merged %d rows through sort", spec.Name, kind, n)
		}
		if prof.Counter(trace.CounterAccumDenseRows) == 0 && hit.NNZ() > 0 {
			t.Fatalf("%s/%v: a known-structure hit counted no dense rows", spec.Name, kind)
		}
	}
}

// TestKnownStructureParanoidCrossCheck tampers with a plan's product
// structure and requires Paranoid mode to catch the hit's wrong product,
// naming the row; outside Paranoid mode the plan's structure is trusted.
func TestKnownStructureParanoidCrossCheck(t *testing.T) {
	a, err := rmat.PowerLaw(400, 6000, 2.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Reorganizer{}.Multiply(a, a, titanOpts())
	if err != nil {
		t.Fatal(err)
	}
	m2 := a.Clone()
	plan, err := cold.Plan.Rebind(m2, m2)
	if err != nil {
		t.Fatal(err)
	}
	// Row r's first column moves to one its products never reach, so the
	// hit reads +0 where the product holds a sum.
	r := 0
	for cold.C.RowNNZ(r) == 0 || cold.C.Idx[cold.C.Ptr[r+1]-1] == a.Cols-1 {
		r++
	}
	idx := slices.Clone(plan.CIdx)
	lo, hi := cold.C.Ptr[r], cold.C.Ptr[r+1]
	copy(idx[lo:hi], idx[lo+1:hi])
	idx[hi-1] = a.Cols - 1
	tampered := *plan
	tampered.CIdx = idx
	opts := titanOpts()
	opts.Plan = &tampered
	opts.Paranoid = true
	_, err = Reorganizer{}.Multiply(m2, m2, opts)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("row %d ", r)) {
		t.Fatalf("Paranoid hit on a tampered structure: err %v, want row %d named", err, r)
	}
}
