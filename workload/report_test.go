package workload

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the schema golden")

const schemaGolden = "testdata/fitness_schema.json"

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

// maximalReport builds a report exercising every optional section: a spec
// name and SLO verdicts with violations. Its rendered key paths ARE the
// schema.
func maximalReport(t *testing.T) []byte {
	t.Helper()
	spec := testSpec()
	// Tighten the SLO so the trace violates it — the violations array and
	// the error-budget target must appear in the schema.
	spec.Classes[0].SLO = SLOSpec{P50Millis: 1, P95Millis: 2, P99Millis: 3, MaxErrorRate: 0.001}
	rep := Score(syntheticTrace(), spec, "trace")
	violated := false
	for _, c := range rep.Classes {
		if c.SLO != nil && len(c.SLO.Violations) > 0 {
			violated = true
		}
	}
	if !violated {
		t.Fatal("maximal report misses an SLO violation")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportSchemaGolden pins the report's JSON field set against the
// committed golden that `spgemmload check` and the ci.sh smoke gate consume.
// Regenerate with: go test ./workload -run TestReportSchemaGolden -update
func TestReportSchemaGolden(t *testing.T) {
	paths, err := SchemaPaths(maximalReport(t))
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(paths, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(schemaGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schemaGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(schemaGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want []string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("schema drift: %d paths, golden has %d (run with -update after a deliberate change)", len(paths), len(want))
	}
	for i := range paths {
		if paths[i] != want[i] {
			t.Fatalf("schema drift at %q (golden %q)", paths[i], want[i])
		}
	}
}

func TestCheckSchema(t *testing.T) {
	full := maximalReport(t)
	allowed, err := SchemaPaths(full)
	if err != nil {
		t.Fatal(err)
	}
	// The full report validates against its own schema.
	if err := CheckSchema(full, allowed); err != nil {
		t.Fatal(err)
	}
	// A sparser report — optional sections omitted — still validates.
	sparse := Score(syntheticTrace()[:3], nil, "trace")
	var buf bytes.Buffer
	if err := sparse.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(buf.Bytes(), allowed); err != nil {
		t.Fatalf("sparse report rejected: %v", err)
	}
	// A new field fails with its path.
	invented := strings.Replace(string(full), `"source"`, `"invented_field": 1, "source"`, 1)
	err = CheckSchema([]byte(invented), allowed)
	if err == nil || !strings.Contains(err.Error(), "invented_field") {
		t.Fatalf("invented field error = %v", err)
	}
}

func TestReadReportRoundTrip(t *testing.T) {
	data := maximalReport(t)
	rep, err := ReadReport(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("report did not survive a decode/encode round trip")
	}
}

// TestScoreByteIdentical pins the property the ci.sh smoke gate checks
// with cmp: scoring the same trace twice renders the exact same fitness
// report, byte for byte, although each record's phases live in a map.
func TestScoreByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	if err := Score(syntheticTrace(), testSpec(), "trace").WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Score(syntheticTrace(), testSpec(), "trace").WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("one trace scored to different reports")
	}
}
