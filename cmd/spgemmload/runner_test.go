package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/workload"
)

// TestRunnerRecordMatchesServerTrace drives two requests on one structure
// through the live runner against an in-process server that records its
// own request trace. Both sides must describe each completed request the
// same way; the second request is a plan-cache hit, so both branches of
// the plan flag are compared.
func TestRunnerRecordMatchesServerTrace(t *testing.T) {
	var trace bytes.Buffer
	srv, err := server.New(server.Config{Workers: 1, RequestTrace: &trace}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gen := datasets.GenSpec{Kind: "rmat", N: 96, NNZ: 600, Seed: 3}
	reqs := []workload.Request{
		{Seq: 0, AtSeconds: 0, Class: "first", Gen: gen, MatrixName: "parity"},
		{Seq: 1, AtSeconds: 0.02, Class: "second", Gen: gen, MatrixName: "parity"},
	}
	ctx := context.Background()
	got, err := run(ctx, &server.Client{Base: ts.URL}, reqs, runOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Shutdown waits for the workers, so the trace is complete and no
	// longer written to.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	recorded, err := workload.ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(recorded) != 2 {
		t.Fatalf("runner kept %d records, server %d; want 2 each", len(got), len(recorded))
	}
	byClass := map[string]workload.Record{}
	for _, r := range recorded {
		byClass[r.Class] = r
	}
	for i, c := range got {
		s, ok := byClass[c.Class]
		if !ok {
			t.Fatalf("server trace has no record of class %q", c.Class)
		}
		if c.Outcome != workload.OutcomeDone || c.Seq != i {
			t.Fatalf("runner record %d: %+v", i, c)
		}
		if c.PlanCacheHit != (i == 1) {
			t.Fatalf("runner record %d: plan hit %v", i, c.PlanCacheHit)
		}
		pairs := []struct {
			field        string
			runner, serv any
		}{
			{"Outcome", c.Outcome, s.Outcome},
			{"Algorithm", c.Algorithm, s.Algorithm},
			{"GPU", c.GPU, s.GPU},
			{"QueueWaitSeconds", c.QueueWaitSeconds, s.QueueWaitSeconds},
			{"ExecSeconds", c.ExecSeconds, s.ExecSeconds},
			{"PredictedSeconds", c.PredictedSeconds, s.PredictedSeconds},
			{"PlanCacheHit", c.PlanCacheHit, s.PlanCacheHit},
			{"Phases", c.Phases, s.Phases},
		}
		for _, p := range pairs {
			if !reflect.DeepEqual(p.runner, p.serv) {
				t.Errorf("%s request: %s is %v in the runner's record, %v in the server's", c.Class, p.field, p.runner, p.serv)
			}
		}
		if len(c.Phases) == 0 || c.PredictedSeconds <= 0 {
			t.Errorf("%s request: record carries no timing evidence: %+v", c.Class, c)
		}
	}
}
