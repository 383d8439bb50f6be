package workload

import (
	"math"
	"testing"
)

func TestQuantilesOf(t *testing.T) {
	// 1..100: nearest-rank p50 = 50th value = 50, p95 = 95, p99 = 99.
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // reversed — quantilesOf must sort
	}
	q := quantilesOf(vs)
	if q.P50 != 50 || q.P95 != 95 || q.P99 != 99 || q.Max != 100 {
		t.Fatalf("quantiles = %+v", q)
	}
	if q.Mean != 50.5 {
		t.Fatalf("mean = %g", q.Mean)
	}
	if got := quantilesOf(nil); got != (Quantiles{}) {
		t.Fatalf("empty quantiles = %+v", got)
	}
	one := quantilesOf([]float64{0.25})
	if one.P50 != 0.25 || one.P99 != 0.25 || one.Max != 0.25 {
		t.Fatalf("singleton quantiles = %+v", one)
	}
}

func TestScoreClass(t *testing.T) {
	// All targets met.
	rep := scoreClass(SLOSpec{P95Millis: 100}, Quantiles{P95: 0.05}, 0)
	if !rep.Met || rep.Score != 1 || len(rep.Violations) != 0 {
		t.Fatalf("met case: %+v", rep)
	}

	// p95 violated at 2× the target → score 0.5.
	rep = scoreClass(SLOSpec{P95Millis: 100}, Quantiles{P95: 0.2}, 0)
	if rep.Met || rep.Score != 0.5 {
		t.Fatalf("violated case: %+v", rep)
	}
	if len(rep.Violations) != 1 || rep.Violations[0] != "p95" {
		t.Fatalf("violations = %v", rep.Violations)
	}

	// The worst component wins: p50 at 4×, p99 at 2× → 0.25.
	rep = scoreClass(SLOSpec{P50Millis: 10, P99Millis: 100},
		Quantiles{P50: 0.04, P99: 0.2}, 0)
	if rep.Score != 0.25 {
		t.Fatalf("worst-component score = %g", rep.Score)
	}

	// Error budget: 2% errors on a 1% budget → 0.5.
	rep = scoreClass(SLOSpec{MaxErrorRate: 0.01}, Quantiles{}, 0.02)
	if rep.Met || rep.Score != 0.5 {
		t.Fatalf("error budget case: %+v", rep)
	}

	// Zero budget with any errors is fatal.
	rep = scoreClass(SLOSpec{P95Millis: 100}, Quantiles{P95: 0.05}, 0.1)
	if rep.Met || rep.Score != 0 {
		t.Fatalf("zero-budget case: %+v", rep)
	}

	// No targets → no report.
	if rep := scoreClass(SLOSpec{}, Quantiles{}, 0.5); rep != nil {
		t.Fatalf("empty SLO scored: %+v", rep)
	}
}

func TestOtherSeconds(t *testing.T) {
	r := &Record{ExecSeconds: 0.1, Phases: map[string]float64{
		"expansion": 0.04, "merge": 0.03, "other": 0.5, // "other" is unattributed already
	}}
	if got := otherSeconds(r); math.Abs(got-0.03) > 1e-12 {
		t.Fatalf("otherSeconds = %g", got)
	}
	if got := otherSeconds(&Record{ExecSeconds: 0.1}); got != 0 {
		t.Fatalf("no-phase otherSeconds = %g", got)
	}
	over := &Record{ExecSeconds: 0.01, Phases: map[string]float64{"expansion": 0.02}}
	if got := otherSeconds(over); got != 0 {
		t.Fatalf("over-accounted otherSeconds = %g", got)
	}
}

func TestScore(t *testing.T) {
	spec := testSpec()
	recs := []Record{
		// interactive: 2 done (one plan hit), p95 = max = 0.04s against a
		// 50ms target and no errors → met.
		{ArrivalSeconds: 0, Class: "interactive", Kind: "multiply", Outcome: OutcomeDone,
			QueueWaitSeconds: 0.01, ExecSeconds: 0.03, PlanCacheHit: true},
		{ArrivalSeconds: 2, Class: "interactive", Kind: "multiply", Outcome: OutcomeDone,
			QueueWaitSeconds: 0, ExecSeconds: 0.02},
		// batch: no SLO → scores 1 − error rate, weight 2.
		{ArrivalSeconds: 0.5, Class: "batch", Kind: "multiply", Outcome: OutcomeDone,
			QueueWaitSeconds: 0.1, ExecSeconds: 0.4},
		{ArrivalSeconds: 1.5, Class: "batch", Kind: "multiply", Outcome: FailedOutcome("timeout")},
		{ArrivalSeconds: 1.8, Class: "batch", Kind: "multiply", Outcome: OutcomeRejected},
	}
	rep := Score(recs, spec, "trace")
	if rep.Source != "trace" || rep.Spec != "unit" || rep.Requests != 5 {
		t.Fatalf("header = %+v", rep)
	}
	if rep.DurationSeconds != 2 {
		t.Fatalf("duration = %g", rep.DurationSeconds)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %d", len(rep.Classes))
	}
	// Sorted by name: batch first.
	b, in := rep.Classes[0], rep.Classes[1]
	if b.Class != "batch" || in.Class != "interactive" {
		t.Fatalf("class order: %s, %s", b.Class, in.Class)
	}
	if b.Count != 3 || b.Completed != 1 || b.Failed != 1 || b.Rejected != 1 || b.Weight != 2 {
		t.Fatalf("batch report = %+v", b)
	}
	if b.ErrorRate != Round6(2.0/3.0) {
		t.Fatalf("batch error rate = %g", b.ErrorRate)
	}
	if b.SLO != nil {
		t.Fatal("batch has no SLO targets but got a verdict")
	}
	if in.Count != 2 || in.Completed != 2 || in.PlanHitRate != 0.5 {
		t.Fatalf("interactive report = %+v", in)
	}
	if in.SLO == nil || !in.SLO.Met {
		t.Fatalf("interactive SLO = %+v", in.SLO)
	}
	if in.Latency.Max != 0.04 || in.QueueWait.Max != 0.01 {
		t.Fatalf("interactive latency = %+v queue = %+v", in.Latency, in.QueueWait)
	}
	// Fitness is the weighted mean: batch scores 1 − error_rate, weight 2;
	// interactive scores 1, weight 1.
	want := Round6((2*(1-Round6(2.0/3.0)) + 1) / 3)
	if math.Abs(rep.Fitness-want) > 1e-12 {
		t.Fatalf("fitness = %g, want %g", rep.Fitness, want)
	}
	if rep.Calibration != nil {
		t.Fatal("calibration present without predictions")
	}
	// Top-level plan hit rate spans all classes: 1 hit over 3 completions.
	if rep.PlanHitRate != Round6(1.0/3.0) {
		t.Fatalf("plan hit rate = %g, want %g", rep.PlanHitRate, Round6(1.0/3.0))
	}

	// A nil spec still produces statistics, unweighted and verdict-free.
	plain := Score(recs, nil, "trace")
	if plain.Spec != "" || plain.Classes[1].SLO != nil || plain.Classes[0].Weight != 1 {
		t.Fatalf("nil-spec report = %+v", plain)
	}

	// Unclassed records fold into "(unclassed)".
	anon := Score([]Record{{Kind: "multiply", Outcome: OutcomeDone, ExecSeconds: 0.1}}, nil, "trace")
	if len(anon.Classes) != 1 || anon.Classes[0].Class != "(unclassed)" {
		t.Fatalf("unclassed report = %+v", anon.Classes)
	}
}

func TestRound6(t *testing.T) {
	if Round6(0.1234567) != 0.123457 {
		t.Fatalf("Round6 = %v", Round6(0.1234567))
	}
	if v := Round6(math.Copysign(0, -1) * 1); math.Signbit(v) {
		t.Fatal("Round6 kept -0")
	}
	if Round6(-1e-9) != 0 {
		t.Fatalf("Round6(-1e-9) = %v", Round6(-1e-9))
	}
}
