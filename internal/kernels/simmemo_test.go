package kernels

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// coldAndRebound runs the Reorganizer cold on m, then rebinds its plan to
// a copy of m carrying new values, as a plan-cache hit does.
func coldAndRebound(t *testing.T, m *sparse.CSR, opts Options) (cold *Product, m2 *sparse.CSR, plan *core.Plan) {
	t.Helper()
	cold, err := Reorganizer{}.Multiply(m, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2 = m.Clone()
	m2.Scale(2)
	plan, err = cold.Plan.Rebind(m2, m2)
	if err != nil {
		t.Fatal(err)
	}
	return cold, m2, plan
}

// unmemoized returns a copy of plan with an empty simulation memo, so a run
// on it simulates every kernel.
func unmemoized(plan *core.Plan) *core.Plan {
	q := *plan
	q.Sim = &core.SimMemo{}
	return &q
}

// TestSimMemoGridBitIdentical proves the memo changes no simulated number:
// on every Table II dataset, a rebound hit reports exactly the cold run's
// expansion and merge kernel results, and a simulated-afresh run of the
// same rebound plan reports the same results and the same total seconds.
// Outside Paranoid mode the hit must also reuse the stored results rather
// than recompute them.
func TestSimMemoGridBitIdentical(t *testing.T) {
	for _, spec := range datasets.RealWorld() {
		m, err := spec.Generate(64)
		if err != nil {
			t.Fatal(err)
		}
		opts := titanOpts()
		opts.SkipValues = true
		cold, m2, plan := coldAndRebound(t, m, opts)
		if k := cold.Report.Kernels[0]; k.Phase != gpusim.PhasePre {
			t.Fatalf("%s: cold run's first kernel is %q, want the precalculation", spec.Name, k.Name)
		}
		want := cold.Report.Kernels[1:]

		opts.Plan = plan
		hit, err := Reorganizer{}.Multiply(m2, m2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hit.Report.Kernels, want) {
			t.Fatalf("%s: rebound hit's kernel results differ from the cold run's", spec.Name)
		}
		if !gpusim.ParanoidEnv() {
			for i, k := range hit.Report.Kernels {
				if k != want[i] {
					t.Fatalf("%s: rebound hit simulated kernel %q again instead of reusing it", spec.Name, k.Name)
				}
			}
		}

		opts.Plan = unmemoized(plan)
		fresh, err := Reorganizer{}.Multiply(m2, m2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Report.Kernels, hit.Report.Kernels) {
			t.Fatalf("%s: a fresh simulation differs from the memoized one", spec.Name)
		}
		if got, wantS := hit.Report.TotalSeconds(), fresh.Report.TotalSeconds(); got != wantS {
			t.Fatalf("%s: hit total %v s, fresh simulation %v s", spec.Name, got, wantS)
		}
	}
}

// TestSimMemoKeyedByDevice checks that a plan simulated on one device and
// accumulator and then run on another device, or under another
// accumulator, simulates afresh, matching an unmemoized run there, and
// that every (device, accumulator) pair's results stay memoized
// afterwards.
func TestSimMemoKeyedByDevice(t *testing.T) {
	a, err := rmat.PowerLaw(400, 6000, 2.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := titanOpts()
	opts.SkipValues = true
	cold, m2, plan := coldAndRebound(t, a, opts)

	other := gpusim.TitanXp()
	other.L2Size /= 2 // one field differs: a different key
	for _, tc := range []struct {
		name  string
		dev   gpusim.Config
		accum sparse.AccumulatorKind
	}{
		{"second device", other, sparse.AccumAuto},
		{"hash accumulator", gpusim.TitanXp(), sparse.AccumHash},
	} {
		opts.Device, opts.Accumulator = tc.dev, tc.accum
		opts.Plan = plan
		got, err := Reorganizer{}.Multiply(m2, m2, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Plan = unmemoized(plan)
		want, err := Reorganizer{}.Multiply(m2, m2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Report.Kernels, want.Report.Kernels) {
			t.Fatalf("%s: run does not match a fresh simulation", tc.name)
		}
		if reflect.DeepEqual(got.Report.Kernels, cold.Report.Kernels[1:]) {
			t.Fatalf("%s: run reported the cold run's memoized results", tc.name)
		}
	}
	for _, k := range []struct {
		dev   gpusim.Config
		accum sparse.AccumulatorKind
	}{{gpusim.TitanXp(), sparse.AccumAuto}, {other, sparse.AccumAuto}, {gpusim.TitanXp(), sparse.AccumHash}} {
		if _, ok := plan.Sim.Load(k.dev, k.accum); !ok {
			t.Fatalf("memo lost the results for %s (L2 %d) under %v", k.dev.Name, k.dev.L2Size, k.accum)
		}
	}
}

// TestSimMemoConcurrentHits runs eight goroutines through one cached plan,
// each rebinding it to its own operands, and requires every run to report
// the cold run's simulated seconds and the exact product. Run under -race
// it also proves the shared memo is safe.
func TestSimMemoConcurrentHits(t *testing.T) {
	a, err := rmat.PowerLaw(300, 4000, 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Reorganizer{}.Multiply(a, a, titanOpts())
	if err != nil {
		t.Fatal(err)
	}
	var wantSim float64
	for _, k := range cold.Report.Kernels[1:] {
		wantSim += k.Seconds
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := a.Clone()
			m.Scale(float64(g + 1))
			plan, err := cold.Plan.Rebind(m, m)
			if err != nil {
				errs <- err.Error()
				return
			}
			opts := titanOpts()
			opts.Plan = plan
			p, err := Reorganizer{}.Multiply(m, m, opts)
			if err != nil {
				errs <- err.Error()
				return
			}
			var sim float64
			for _, k := range p.Report.Kernels {
				sim += k.Seconds
			}
			if sim != wantSim {
				errs <- "simulated seconds moved on a concurrent hit"
			}
			want, err := sparse.Multiply(m, m)
			if err != nil {
				errs <- err.Error()
				return
			}
			if !p.C.Equal(want, 0) {
				errs <- "concurrent hit's product differs from the reference"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSimMemoParanoidAudit tampers with a memoized kernel result and
// requires Paranoid mode to catch it, naming the kernel.
func TestSimMemoParanoidAudit(t *testing.T) {
	a, err := rmat.PowerLaw(400, 6000, 2.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := titanOpts()
	opts.SkipValues = true
	_, m2, plan := coldAndRebound(t, a, opts)
	memo, ok := plan.Sim.Load(opts.Device, opts.Accumulator)
	if !ok {
		t.Fatal("cold run left no simulation memo on its plan")
	}
	last := len(memo) - 1
	tampered := *memo[last]
	tampered.Seconds *= 2
	memo[last] = &tampered

	opts.Plan = plan
	if !gpusim.ParanoidEnv() {
		// Outside Paranoid mode the hit trusts the memo: the tampered
		// value is what it reports, which proves it did not simulate.
		p, err := Reorganizer{}.Multiply(m2, m2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.Report.Kernels[last] != &tampered {
			t.Fatal("hit did not report the memoized results")
		}
	}
	opts.Paranoid = true
	_, err = Reorganizer{}.Multiply(m2, m2, opts)
	if err == nil {
		t.Fatal("Paranoid mode accepted a tampered simulation memo")
	}
	if !strings.Contains(err.Error(), tampered.Name) {
		t.Fatalf("audit error does not name kernel %q: %v", tampered.Name, err)
	}
}
