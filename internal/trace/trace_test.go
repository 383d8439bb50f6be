package trace

import (
	"testing"
	"time"

	"github.com/blockreorg/blockreorg/internal/parallel"
)

// TestNilRecorderZeroAllocs pins the disabled-state contract: every method
// on a nil *Recorder costs no allocation, so instrumented hot paths can
// call it unconditionally.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	cases := map[string]func(){
		"Span":      func() { r.Span(PhaseExpansion)() },
		"SpanItems": func() { r.SpanItems(PhaseExpansion, 42)() },
		"Observe":   func() { r.Observe(PhaseExpansion, 42, time.Second) },
		"Add":       func() { r.Add(CounterPairs, 1) },
		"Set":       func() { r.Set(GaugeAlpha, 1.5) },
		"NowSince":  func() { _ = r.Since(r.Now()) },
		"Enabled":   func() { _ = r.Enabled() },
		"Profile":   func() { _ = r.Profile() },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s on nil recorder: %v allocs/run, want 0", name, allocs)
		}
	}
}

// TestNilRecorderValues checks the disabled-state return values.
func TestNilRecorderValues(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if !r.Now().IsZero() {
		t.Error("nil recorder Now() not zero")
	}
	if d := r.Since(time.Now().Add(-time.Hour)); d != 0 {
		t.Errorf("nil recorder Since() = %v, want 0", d)
	}
	if p := r.Profile(); p != nil {
		t.Errorf("nil recorder Profile() = %v, want nil", p)
	}
}

// TestSpanAggregation checks that spans fold into per-phase calls, items
// and durations.
func TestSpanAggregation(t *testing.T) {
	r := New()
	r.Observe(PhaseExpansion, 10, 2*time.Millisecond)
	r.Observe(PhaseExpansion, 5, 3*time.Millisecond)
	r.Observe(PhaseSplit, 7, time.Millisecond)
	r.Add(CounterPairs, 3)
	r.Add(CounterPairs, 4)
	r.Set(GaugeAlpha, 32)
	r.Set(GaugeAlpha, 16)

	p := r.Profile()
	var merge *PhaseBreakdown
	for i := range p.Phases {
		if p.Phases[i].Phase == string(PhaseExpansion) {
			merge = &p.Phases[i]
		}
	}
	if merge == nil {
		t.Fatal("merge phase missing from profile")
	}
	if merge.Calls != 2 || merge.Items != 15 {
		t.Errorf("merge = %d calls / %d items, want 2 / 15", merge.Calls, merge.Items)
	}
	if got := p.PhaseSeconds(PhaseExpansion); got < 0.005 {
		t.Errorf("merge seconds = %v, want >= 0.005", got)
	}
	if got := p.Counter(CounterPairs); got != 7 {
		t.Errorf("pairs counter = %d, want 7", got)
	}
	if got := p.Gauges[GaugeAlpha]; got != 16 {
		t.Errorf("alpha gauge = %v, want the last Set (16)", got)
	}
}

// TestProfileOrdering pins the phase ordering contract: taxonomy phases in
// pipeline order, extra phases after them in name order, "other" last.
func TestProfileOrdering(t *testing.T) {
	r := New()
	r.Observe(PhaseExpansion, 0, time.Nanosecond)
	r.Observe(PhaseSymbolic, 0, time.Nanosecond)
	r.Observe(Phase("zz-custom"), 0, time.Nanosecond)
	r.Observe(Phase("aa-custom"), 0, time.Nanosecond)
	r.Observe(PhaseClassify, 0, time.Nanosecond)

	p := r.Profile()
	var names []string
	for _, b := range p.Phases {
		names = append(names, b.Phase)
	}
	want := []string{"symbolic-nnz", "classification", "expansion", "aa-custom", "zz-custom", "other"}
	if len(names) != len(want) {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases = %v, want %v", names, want)
		}
	}
}

// TestProfileSumsToWall checks the accounting identity the "other" phase
// exists for: phase seconds sum exactly to the wall time, and the shares
// sum to 1.
func TestProfileSumsToWall(t *testing.T) {
	r := New()
	done := r.Span(PhaseExpansion)
	time.Sleep(2 * time.Millisecond)
	done()
	p := r.Profile()

	var seconds, share float64
	for _, b := range p.Phases {
		seconds += b.Seconds
		share += b.Share
	}
	if diff := seconds - p.WallSeconds; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("phase seconds sum %v != wall %v", seconds, p.WallSeconds)
	}
	if share < 0.999999 || share > 1.000001 {
		t.Errorf("shares sum to %v, want 1", share)
	}
	last := p.Phases[len(p.Phases)-1]
	if last.Phase != string(PhaseOther) {
		t.Errorf("last phase = %s, want other", last.Phase)
	}
}

// TestConcurrentSpans records spans from many executor chunks at once; run
// under -race this is the recorder's thread-safety proof.
func TestConcurrentSpans(t *testing.T) {
	r := New()
	ex := parallel.NewExecutor(8)
	const n = 512
	ex.ForEachN(n, func(rg parallel.Range) {
		for i := rg.Lo; i < rg.Hi; i++ {
			done := r.SpanItems(PhaseExpansion, 1)
			r.Add(CounterFlops, 2)
			done()
		}
	})
	p := r.Profile()
	var exp *PhaseBreakdown
	for i := range p.Phases {
		if p.Phases[i].Phase == string(PhaseExpansion) {
			exp = &p.Phases[i]
		}
	}
	if exp == nil || exp.Calls != n || exp.Items != n {
		t.Fatalf("expansion breakdown = %+v, want %d calls / %d items", exp, n, n)
	}
	if got := p.Counter(CounterFlops); got != 2*n {
		t.Errorf("flops counter = %d, want %d", got, 2*n)
	}
}

// TestProfileExactTotals: phase totals are exact sums of the recorded
// durations, so they do not drift with the span count and do not depend
// on the order the spans arrived in.
func TestProfileExactTotals(t *testing.T) {
	r := New()
	for i := 0; i < 1_000_000; i++ {
		r.Observe(PhaseExpansion, 1, time.Microsecond)
	}
	if got := r.Profile().PhaseSeconds(PhaseExpansion); got != 1.0 {
		t.Fatalf("10^6 spans of 1µs total %v s, want exactly 1", got)
	}

	// Varied durations across two phases, recorded forward and reversed.
	durs := make([]time.Duration, 100_000)
	for i := range durs {
		durs[i] = time.Duration(1 + i*7919%100_003)
	}
	phase := func(i int) Phase { return []Phase{PhaseSymbolic, PhaseExpansion}[i%2] }
	fwd, rev := New(), New()
	for i := range durs {
		j := len(durs) - 1 - i
		fwd.Observe(phase(i), int64(i), durs[i])
		rev.Observe(phase(j), int64(j), durs[j])
	}
	pf, pr := fwd.Profile(), rev.Profile()
	for _, ph := range []Phase{PhaseSymbolic, PhaseExpansion} {
		if a, b := pf.PhaseSeconds(ph), pr.PhaseSeconds(ph); a != b {
			t.Errorf("%s: forward order totals %v s, reverse %v s", ph, a, b)
		}
	}
}

// TestProfileWhileRecording checks Profile is a consistent snapshot,
// callable while spans keep arriving. The observer records measured,
// hence disjoint, spans: the precondition of the sum <= wall invariant
// (overlapping spans may legitimately exceed the wall time). It stops
// after 1<<16 spans so the span slice stays bounded under -count=N.
func TestProfileWhileRecording(t *testing.T) {
	r := New()
	stop := make(chan struct{})
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		for n := 0; n < 1<<16; n++ {
			select {
			case <-stop:
				return
			default:
				t0 := time.Now()
				r.Observe(PhaseExpansion, 1, time.Since(t0))
			}
		}
	}()
	for i := 0; i < 100; i++ {
		p := r.Profile()
		var sum, share float64
		for _, b := range p.Phases {
			sum += b.Seconds
			share += b.Share
		}
		if sum > p.WallSeconds+1e-12 {
			t.Fatalf("snapshot accounts %v > wall %v", sum, p.WallSeconds)
		}
	}
	close(stop)
	<-donec
}
