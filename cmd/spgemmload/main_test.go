package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/blockreorg/blockreorg/workload"
)

const testSpecJSON = `{
  "name": "smoke",
  "seed": 7,
  "duration_seconds": 0.8,
  "classes": [
    {
      "name": "interactive",
      "arrival": {"process": "poisson", "rate": 20},
      "matrix": {"kind": "rmat", "n": 96, "nnz": 600},
      "structure_pool": 2,
      "slo": {"p95_ms": 2000}
    },
    {
      "name": "batch",
      "arrival": {"process": "gamma", "rate": 8, "cv": 2},
      "matrix": {"kind": "powerlaw", "n": 128, "nnz": 900},
      "structure_churn": 0.5,
      "weight": 2
    }
  ]
}`

// TestHarnessEndToEnd walks the whole loop the ci.sh smoke gate scripts:
// gen → run -self (recording a trace) → score twice (byte-identical) →
// check against the committed schema golden.
func TestHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live in-process server")
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(testSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	// gen: the compiled stream dumps and is non-empty.
	genOut := filepath.Join(dir, "stream.json")
	if err := cmdGen([]string{"-spec", specPath, "-o", genOut}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if data, err := os.ReadFile(genOut); err != nil || !bytes.Contains(data, []byte(`"requests"`)) {
		t.Fatalf("gen output: %v", err)
	}

	// run -self: live in-process traffic, trace recorded.
	tracePath := filepath.Join(dir, "trace.jsonl")
	liveReport := filepath.Join(dir, "live.json")
	if err := cmdRun([]string{"-spec", specPath, "-self", "-trace", tracePath, "-o", liveReport}); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("live run recorded no requests")
	}
	done := 0
	for _, r := range recs {
		if r.Outcome == workload.OutcomeDone {
			done++
			if r.PredictedSeconds <= 0 {
				t.Fatalf("completed record carries no prediction: %+v", r)
			}
		}
	}
	if done == 0 {
		t.Fatal("no request completed")
	}

	// score twice: the recorded trace scores to byte-identical reports.
	scoreA := filepath.Join(dir, "score-a.json")
	scoreB := filepath.Join(dir, "score-b.json")
	for _, out := range []string{scoreA, scoreB} {
		if err := cmdScore([]string{"-trace", tracePath, "-spec", specPath, "-o", out}); err != nil {
			t.Fatalf("score: %v", err)
		}
	}
	a, err := os.ReadFile(scoreA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(scoreB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("one trace scored to different reports")
	}

	// check: every produced report conforms to the committed schema golden.
	schema := filepath.Join("..", "..", "workload", "testdata", "fitness_schema.json")
	for _, rep := range []string{liveReport, scoreA} {
		if err := cmdCheck([]string{"-report", rep, "-schema", schema}); err != nil {
			t.Fatalf("check %s: %v", rep, err)
		}
	}
}

func TestVerbErrors(t *testing.T) {
	if err := cmdGen([]string{}); err == nil {
		t.Fatal("gen without -spec accepted")
	}
	if err := cmdScore([]string{}); err == nil {
		t.Fatal("score without -trace accepted")
	}
	if err := cmdRun([]string{"-spec", "x.json"}); err == nil {
		t.Fatal("run without -self/-target accepted")
	}
	if err := cmdCheck([]string{"-report", "r.json"}); err == nil {
		t.Fatal("check without -schema accepted")
	}
}
