package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newClientBackend serves an unstarted server (no workers), so every
// admitted job stays queued until the test starts the pool.
func newClientBackend(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &Client{Base: ts.URL}
}

func TestClientRoundTrip(t *testing.T) {
	s, c := newClientBackend(t, Config{Workers: 1})
	s.Start()
	ctx := context.Background()
	a := testNetwork(t, 80, 600, 3)
	fp, err := c.Register(ctx, "a", a)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := s.Registry().Get("a"); fp == "" || fp != infoFor(m).Fingerprint {
		t.Fatalf("Register returned fingerprint %q", fp)
	}
	acc, err := c.Multiply(ctx, &MultiplyRequest{A: Operand{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if acc.URL != "/v1/jobs/"+acc.Job {
		t.Fatalf("accepted = %+v", acc)
	}
	st, err := c.Wait(ctx, acc.Job, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil || st.Result.NNZC == 0 {
		t.Fatalf("job = %+v", st)
	}
	var metrics strings.Builder
	if err := c.Metrics(ctx, &metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "spgemmd_jobs_completed_total 1") {
		t.Fatalf("metrics:\n%s", metrics.String())
	}
}

func TestClientDuplicateRegisterIsConflict(t *testing.T) {
	_, c := newClientBackend(t, Config{})
	ctx := context.Background()
	a := testNetwork(t, 60, 400, 5)
	if _, err := c.Register(ctx, "a", a); err != nil {
		t.Fatal(err)
	}
	_, err := c.Register(ctx, "a", a)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("duplicate register error = %v, want a 409 *StatusError", err)
	}
	if IsRejected(err) {
		t.Fatal("a conflict is not an admission rejection")
	}
}

func TestClientSaturationIsRejected(t *testing.T) {
	s, c := newClientBackend(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	if _, err := c.Register(ctx, "a", testNetwork(t, 60, 400, 5)); err != nil {
		t.Fatal(err)
	}
	req := &MultiplyRequest{A: Operand{Name: "a"}}
	if _, err := c.Multiply(ctx, req); err != nil {
		t.Fatal(err)
	}
	_, err := c.Multiply(ctx, req)
	var se *StatusError
	if !IsRejected(err) || !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow error = %v, want a rejected 429", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Multiply(ctx, req); !IsRejected(err) {
		t.Fatalf("submission while draining: error = %v, want a rejected 503", err)
	}
}

func TestClientUnknownJobCarriesEnvelope(t *testing.T) {
	_, c := newClientBackend(t, Config{})
	_, err := c.Job(context.Background(), "j-42")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown job error = %v, want a 404 *StatusError", err)
	}
	if se.Message != `unknown job "j-42"` {
		t.Fatalf("message = %q, want the envelope text", se.Message)
	}
}

func TestClientWaitStopsOnCancel(t *testing.T) {
	_, c := newClientBackend(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := c.Register(ctx, "a", testNetwork(t, 60, 400, 5)); err != nil {
		t.Fatal(err)
	}
	acc, err := c.Multiply(ctx, &MultiplyRequest{A: Operand{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, cancel)
	st, err := c.Wait(ctx, acc.Job, time.Millisecond)
	if st != nil || err != context.Canceled {
		t.Fatalf("Wait on a queued job = (%+v, %v), want ctx.Err()", st, err)
	}
}
