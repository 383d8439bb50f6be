package workload

import (
	"bytes"
	"math"
	"testing"
)

// syntheticTrace builds a deterministic trace shaped like a real recording.
func syntheticTrace() []Record {
	recs := []Record{}
	for i := 0; i < 40; i++ {
		class := "interactive"
		if i%3 == 0 {
			class = "batch"
		}
		r := Record{
			ArrivalSeconds:   Round6(float64(i) * 0.05),
			Class:            class,
			Kind:             "multiply",
			Outcome:          OutcomeDone,
			QueueWaitSeconds: 0.002,
			ExecSeconds:      Round6(0.03 + 0.001*float64(i%7)),
			PredictedSeconds: Round6(0.01 + 0.0005*float64(i%7)),
			PlanCacheHit:     i%2 == 0,
			Phases: map[string]float64{
				"expansion": 0.01, "merge": 0.01,
			},
		}
		if i == 11 {
			r.Outcome = FailedOutcome("timeout")
		}
		if i == 23 {
			r.Outcome = OutcomeRejected
			r.ExecSeconds = 0
			r.QueueWaitSeconds = 0
			r.PredictedSeconds = 0
			r.Phases = nil
		}
		recs = append(recs, r)
	}
	for i := range recs {
		recs[i].Seq = i
	}
	return recs
}

// TestReplayByteIdentical pins the headline acceptance property: replaying
// the same trace twice with the same options and seed renders the exact
// same fitness report, byte for byte.
func TestReplayByteIdentical(t *testing.T) {
	spec := testSpec()
	opts := ReplayOptions{Workers: 2, Speed: 1.5, QueueDepth: 8, ServiceJitter: 0.2, Seed: 99}
	var a, b bytes.Buffer
	repA, err := ReplayScore(syntheticTrace(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := ReplayScore(syntheticTrace(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := repA.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := repB.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same trace + seed rendered different reports")
	}
	if a.Len() == 0 {
		t.Fatal("empty report")
	}
	if repA.Replay == nil || repA.Replay.Speed != 1.5 {
		t.Fatalf("replay options not echoed: %+v", repA.Replay)
	}
}

// TestReplayQueueing pins the G/G/1 arithmetic on a hand-checkable trace:
// three back-to-back arrivals on one worker serialize.
func TestReplayQueueing(t *testing.T) {
	recs := []Record{
		{Seq: 0, ArrivalSeconds: 0, Outcome: OutcomeDone, ExecSeconds: 0.5},
		{Seq: 1, ArrivalSeconds: 0.1, Outcome: OutcomeDone, ExecSeconds: 0.5},
		{Seq: 2, ArrivalSeconds: 0.2, Outcome: OutcomeDone, ExecSeconds: 0.5},
	}
	out, err := Replay(recs, ReplayOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.4, 0.8}
	for i, w := range want {
		if math.Abs(out[i].QueueWaitSeconds-w) > 1e-9 {
			t.Fatalf("request %d queue wait = %g, want %g", i, out[i].QueueWaitSeconds, w)
		}
		if out[i].ExecSeconds != 0.5 {
			t.Fatalf("request %d exec perturbed: %g", i, out[i].ExecSeconds)
		}
	}

	// Two workers absorb the same burst: only the third waits.
	out, err = Replay(recs, ReplayOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want = []float64{0, 0, 0.3}
	for i, w := range want {
		if math.Abs(out[i].QueueWaitSeconds-w) > 1e-9 {
			t.Fatalf("2-worker request %d queue wait = %g, want %g", i, out[i].QueueWaitSeconds, w)
		}
	}
}

// TestReplaySpeed pins timeline compression: speed 2 halves arrival offsets
// and inflates contention.
func TestReplaySpeed(t *testing.T) {
	recs := []Record{
		{Seq: 0, ArrivalSeconds: 0, Outcome: OutcomeDone, ExecSeconds: 0.5},
		{Seq: 1, ArrivalSeconds: 1.0, Outcome: OutcomeDone, ExecSeconds: 0.5},
	}
	out, err := Replay(recs, ReplayOptions{Workers: 1, Speed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out[1].ArrivalSeconds != 0.5 {
		t.Fatalf("scaled arrival = %g", out[1].ArrivalSeconds)
	}
	// At 1×, arrival 1.0 > completion 0.5: no wait. At 2×, arrival 0.5
	// coincides with completion: still no wait — so push to 4×.
	out, err = Replay(recs, ReplayOptions{Workers: 1, Speed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[1].QueueWaitSeconds-0.25) > 1e-9 {
		t.Fatalf("4× queue wait = %g, want 0.25", out[1].QueueWaitSeconds)
	}
}

// TestReplayQueueDepth pins the bounded-queue rejection model.
func TestReplayQueueDepth(t *testing.T) {
	recs := []Record{
		{Seq: 0, ArrivalSeconds: 0, Outcome: OutcomeDone, ExecSeconds: 1, PredictedSeconds: 0.5, PlanCacheHit: true},
		{Seq: 1, ArrivalSeconds: 0.1, Outcome: OutcomeDone, ExecSeconds: 1, PredictedSeconds: 0.5},
		{Seq: 2, ArrivalSeconds: 0.2, Outcome: OutcomeDone, ExecSeconds: 1, PredictedSeconds: 0.5, PlanCacheHit: true},
	}
	// Depth counts waiting requests, not the one in service: at the third
	// arrival one request waits, which fills a depth-1 queue.
	out, err := Replay(recs, ReplayOptions{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Outcome != OutcomeDone || out[1].Outcome != OutcomeDone {
		t.Fatalf("admitted outcomes: %s, %s", out[0].Outcome, out[1].Outcome)
	}
	if out[2].Outcome != OutcomeRejected {
		t.Fatalf("third arrival outcome = %s, want rejected", out[2].Outcome)
	}
	// A synthesized rejection drops its execution evidence.
	if out[2].ExecSeconds != 0 || out[2].PredictedSeconds != 0 || out[2].PlanCacheHit {
		t.Fatalf("rejection kept execution fields: %+v", out[2])
	}
	// Unbounded queue admits all three.
	out, err = Replay(recs, ReplayOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Outcome != OutcomeDone {
			t.Fatalf("unbounded replay rejected request %d", i)
		}
	}
}

// TestReplayJitterSeeded pins that jitter is reproducible per seed and
// varies across seeds.
func TestReplayJitterSeeded(t *testing.T) {
	recs := syntheticTrace()
	a, err := Replay(recs, ReplayOptions{ServiceJitter: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(recs, ReplayOptions{ServiceJitter: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Replay(recs, ReplayOptions{ServiceJitter: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := range a {
		if a[i].ExecSeconds != b[i].ExecSeconds {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i].ExecSeconds != c[i].ExecSeconds {
			differ = true
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestReplayPassesThroughRecordedRejections pins that a recorded 429 stays
// a rejection and never occupies a virtual worker.
func TestReplayPassesThroughRecordedRejections(t *testing.T) {
	recs := []Record{
		{Seq: 0, ArrivalSeconds: 0, Outcome: OutcomeRejected},
		{Seq: 1, ArrivalSeconds: 0.01, Outcome: OutcomeDone, ExecSeconds: 0.2},
	}
	out, err := Replay(recs, ReplayOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Outcome != OutcomeRejected {
		t.Fatalf("recorded rejection became %s", out[0].Outcome)
	}
	if out[1].QueueWaitSeconds != 0 {
		t.Fatalf("rejection held a worker: wait = %g", out[1].QueueWaitSeconds)
	}
}
