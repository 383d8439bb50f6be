package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// testNetwork builds a power-law operand like the paper's sparse networks.
func testNetwork(t *testing.T, n, nnz int, seed uint64) *sparse.CSR {
	t.Helper()
	m, err := rmat.PowerLaw(n, nnz, 2.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestServer builds a started server and an httptest front end.
func newTestServer(t *testing.T, cfg Config, reg *Registry) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response body into out (if non-nil).
func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

// submit posts a multiply request and returns the job id, requiring 202.
func submit(t *testing.T, base string, req MultiplyRequest) string {
	t.Helper()
	var accepted map[string]string
	resp := postJSON(t, base+"/v1/multiply", req, &accepted)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got status %d, want 202", resp.StatusCode)
	}
	if accepted["job"] == "" {
		t.Fatal("submit: empty job id")
	}
	return accepted["job"]
}

// pollDone polls a job until it leaves the queued/running states.
func pollDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: got status %d", resp.StatusCode)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

// TestServerEndToEnd covers the acceptance path: register a matrix over
// the API, multiply it twice, and require the repeat to be a plan-cache
// hit that skipped the precalculation (strictly less simulated time), with
// the hit visible in /metrics and the product matching a direct library
// call.
func TestServerEndToEnd(t *testing.T) {
	a := testNetwork(t, 400, 6000, 7)
	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	// Register the operand over the API.
	var info matrixInfo
	resp := postJSON(t, ts.URL+"/v1/matrices", RegisterRequest{Name: "net", COO: PayloadFromCSR(a)}, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: got status %d, want 201", resp.StatusCode)
	}
	if info.NNZ != a.NNZ() || info.Rows != a.Rows {
		t.Fatalf("register: echoed %dx%d nnz %d, want %dx%d nnz %d",
			info.Rows, info.Cols, info.NNZ, a.Rows, a.Cols, a.NNZ())
	}

	// Duplicate registration must be refused.
	resp = postJSON(t, ts.URL+"/v1/matrices", RegisterRequest{Name: "net", COO: PayloadFromCSR(a)}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: got status %d, want 409", resp.StatusCode)
	}

	// The listing shows it.
	var listing struct {
		Matrices []matrixInfo `json:"matrices"`
	}
	resp, err := http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Matrices) != 1 || listing.Matrices[0].Name != "net" {
		t.Fatalf("listing: got %+v", listing.Matrices)
	}

	// Direct library call for ground truth (B omitted on the wire = A²).
	want, err := blockreorg.Multiply(a, a, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Cold run: full pipeline, result returned, no cache hit.
	id1 := submit(t, ts.URL, MultiplyRequest{A: Operand{Name: "net"}, ReturnValues: true})
	st1 := pollDone(t, ts.URL, id1)
	if st1.State != StateDone {
		t.Fatalf("cold job failed: %s %s", st1.ErrorKind, st1.Error)
	}
	if st1.Result.PlanCacheHit {
		t.Fatal("cold job reports a plan-cache hit")
	}
	if st1.Result.NNZC != want.NNZC || st1.Result.Flops != want.Flops {
		t.Fatalf("cold job: nnz %d flops %d, want %d and %d",
			st1.Result.NNZC, st1.Result.Flops, want.NNZC, want.Flops)
	}
	got1, err := st1.Result.Values.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !got1.Equal(want.C, 1e-9) {
		t.Fatal("cold job product diverges from direct Multiply")
	}

	// Warm run: same structure, so the plan cache must hit and the run
	// must skip the precalculation kernel — strictly less simulated time.
	id2 := submit(t, ts.URL, MultiplyRequest{A: Operand{Name: "net"}, ReturnValues: true})
	st2 := pollDone(t, ts.URL, id2)
	if st2.State != StateDone {
		t.Fatalf("warm job failed: %s %s", st2.ErrorKind, st2.Error)
	}
	if !st2.Result.PlanCacheHit {
		t.Fatal("warm job missed the plan cache")
	}
	if st2.Result.TotalSeconds >= st1.Result.TotalSeconds {
		t.Fatalf("warm job simulated %.9fs, want strictly below cold %.9fs (precalculation not skipped?)",
			st2.Result.TotalSeconds, st1.Result.TotalSeconds)
	}
	got2, err := st2.Result.Values.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want.C, 1e-9) {
		t.Fatal("warm job product diverges from direct Multiply")
	}

	// The hit shows up in the metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"spgemmd_plancache_hits_total 1",
		"spgemmd_jobs_completed_total 2",
		"spgemmd_jobs_submitted_total 2",
		fmt.Sprintf("spgemmd_job_seconds_count{algorithm=%q} 2", blockreorg.BlockReorganizer),
		// The shared execution engine reports its counters too. Values are
		// process-wide and depend on host parallelism, so presence is all
		// this asserts.
		"spgemmd_executor_chunks_total ",
		"spgemmd_arena_gets_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerRebindCorrectness uploads an operand inline, then uploads the
// same structure with different values: the second run must hit the cache
// (keyed on structure alone) yet produce the product of the NEW values —
// the rebind path, not a stale plan's numerics.
func TestServerRebindCorrectness(t *testing.T) {
	a := testNetwork(t, 300, 4500, 11)
	a2 := a.Clone()
	a2.Scale(3)

	_, ts := newTestServer(t, Config{Workers: 1}, nil)

	id1 := submit(t, ts.URL, MultiplyRequest{A: Operand{COO: PayloadFromCSR(a)}})
	if st := pollDone(t, ts.URL, id1); st.State != StateDone || st.Result.PlanCacheHit {
		t.Fatalf("cold upload: state %s, hit %v", st.State, st.Result != nil && st.Result.PlanCacheHit)
	}

	id2 := submit(t, ts.URL, MultiplyRequest{A: Operand{COO: PayloadFromCSR(a2)}, ReturnValues: true})
	st := pollDone(t, ts.URL, id2)
	if st.State != StateDone {
		t.Fatalf("warm upload failed: %s %s", st.ErrorKind, st.Error)
	}
	if !st.Result.PlanCacheHit {
		t.Fatal("same-structure upload missed the plan cache")
	}
	want, err := blockreorg.Multiply(a2, a2, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Result.Values.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want.C, 1e-9) {
		t.Fatal("rebound plan produced the wrong product for the new values")
	}
}

// TestServerClientErrors exercises the 4xx surface.
func TestServerClientErrors(t *testing.T) {
	a := testNetwork(t, 50, 300, 3)
	reg := NewRegistry()
	if _, err := reg.Register("a", a); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1}, reg)

	rect := PayloadFromCSR(testNetwork(t, 40, 200, 4)) // 40x40: mismatched against 50x50
	cases := []struct {
		name string
		req  MultiplyRequest
		want int
	}{
		{"unknown operand", MultiplyRequest{A: Operand{Name: "nope"}}, http.StatusBadRequest},
		{"empty operand", MultiplyRequest{}, http.StatusBadRequest},
		{"both name and coo", MultiplyRequest{A: Operand{Name: "a", COO: rect}}, http.StatusBadRequest},
		{"dimension mismatch", MultiplyRequest{A: Operand{Name: "a"}, B: &Operand{COO: rect}}, http.StatusBadRequest},
		{"unknown algorithm", MultiplyRequest{A: Operand{Name: "a"}, Algorithm: "strassen"}, http.StatusBadRequest},
		{"unknown gpu", MultiplyRequest{A: Operand{Name: "a"}, GPU: "Voodoo2"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var envelope map[string]string
		resp := postJSON(t, ts.URL+"/v1/multiply", tc.req, &envelope)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if envelope["error"] == "" {
			t.Errorf("%s: missing error envelope", tc.name)
		}
	}

	// Malformed bodies and unknown fields are rejected too.
	resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader(`{"a": {"name": "a"}, "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: got status %d, want 400", resp.StatusCode)
	}

	// Unknown jobs are 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/j-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: got status %d, want 404", resp.StatusCode)
	}

	// An invalid inline matrix is caught at admission.
	resp = postJSON(t, ts.URL+"/v1/multiply",
		MultiplyRequest{A: Operand{COO: &COOPayload{Rows: 2, Cols: 2, I: []int{5}, J: []int{0}, V: []float64{1}}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range entry: got status %d, want 400", resp.StatusCode)
	}
}

// TestServerSaturation fills the bounded queue before the workers start and
// requires the overflow submission to be rejected with 429 and counted.
func TestServerSaturation(t *testing.T) {
	a := testNetwork(t, 60, 400, 5)
	reg := NewRegistry()
	if _, err := reg.Register("a", a); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 2}, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Workers intentionally not started: the queue fills deterministically.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := MultiplyRequest{A: Operand{Name: "a"}}
	id1 := submit(t, ts.URL, req)
	id2 := submit(t, ts.URL, req)

	resp := postJSON(t, ts.URL+"/v1/multiply", req, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: got status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("overflow: missing Retry-After header")
	}

	// The admitted jobs still run once workers come up.
	s.Start()
	for _, id := range []string{id1, id2} {
		if st := pollDone(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("admitted job %s failed after saturation: %s", id, st.Error)
		}
	}

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body), "spgemmd_jobs_rejected_total 1") {
		t.Errorf("metrics missing rejected count:\n%s", body)
	}
}

// TestServerQueuedDeadline lets a job's deadline lapse while it waits in
// the queue; the worker must fail it as a timeout instead of running it.
func TestServerQueuedDeadline(t *testing.T) {
	a := testNetwork(t, 60, 400, 6)
	reg := NewRegistry()
	if _, err := reg.Register("a", a); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts.URL, MultiplyRequest{A: Operand{Name: "a"}, TimeoutMillis: 1})
	time.Sleep(10 * time.Millisecond) // let the deadline lapse before any worker exists
	s.Start()
	st := pollDone(t, ts.URL, id)
	if st.State != StateFailed || st.ErrorKind != FailTimeout {
		t.Fatalf("got state %s kind %s, want failed/timeout", st.State, st.ErrorKind)
	}
}

// TestServerTimeoutStopsWork: a multiply whose deadline expires mid-run
// fails as a timeout, and once the job is terminal no goroutine of its run
// is left — the run stops on the worker's goroutine instead of finishing
// in the background. The test drives the handler directly, so no
// connection goroutines blur the count.
func TestServerTimeoutStopsWork(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("a", testNetwork(t, 20_000, 150_000, 7)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	base := runtime.NumGoroutine()

	serve := func(method, path string, in, out any) {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if err := json.NewDecoder(rr.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: status %d: %v", method, path, rr.Code, err)
		}
	}
	var accepted map[string]string
	serve(http.MethodPost, "/v1/multiply", MultiplyRequest{A: Operand{Name: "a"}, TimeoutMillis: 10}, &accepted)
	var st JobStatus
	for st.State != StateDone && st.State != StateFailed {
		time.Sleep(2 * time.Millisecond)
		serve(http.MethodGet, "/v1/jobs/"+accepted["job"], nil, &st)
	}
	if st.State != StateFailed || st.ErrorKind != FailTimeout {
		t.Fatalf("got state %s kind %s, want failed/timeout", st.State, st.ErrorKind)
	}
	// An executor helper that has signalled its WaitGroup may still be
	// exiting; give the count 100 ms to settle, well short of the ~300 ms
	// the whole multiply takes.
	n := runtime.NumGoroutine()
	for end := time.Now().Add(100 * time.Millisecond); n > base && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after the job timed out, %d before it ran", n, base)
	}
}

// TestServerHealth covers /healthz across the lifecycle.
func TestServerHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: got %d, want 200", resp.StatusCode)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: got %d, want 503", resp.StatusCode)
	}
}

// TestServerMixedAlgorithms runs a request under a baseline algorithm and
// checks it bypasses the plan cache entirely.
func TestServerMixedAlgorithms(t *testing.T) {
	a := testNetwork(t, 200, 2500, 9)
	reg := NewRegistry()
	if _, err := reg.Register("a", a); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1}, reg)

	id := submit(t, ts.URL, MultiplyRequest{A: Operand{Name: "a"}, Algorithm: string(blockreorg.RowProduct)})
	st := pollDone(t, ts.URL, id)
	if st.State != StateDone {
		t.Fatalf("row-product job failed: %s", st.Error)
	}
	if st.Result.PlanCacheHit {
		t.Fatal("baseline algorithm reported a plan-cache hit")
	}
	if got := s.Cache().Stats(); got.Misses != 0 || got.Size != 0 {
		t.Fatalf("baseline algorithm touched the plan cache: %+v", got)
	}
	if st.Result.Algorithm != string(blockreorg.RowProduct) {
		t.Fatalf("ran %q, want %q", st.Result.Algorithm, blockreorg.RowProduct)
	}
}

// TestConfigRejectsUnknownGPU validates device names at construction.
func TestConfigRejectsUnknownGPU(t *testing.T) {
	if _, err := New(Config{GPUs: []string{"Voodoo2"}}, nil); err == nil {
		t.Fatal("New accepted an unknown GPU")
	}
}

// TestServerObservability covers the tracing surfaces: a request with
// "profile": true gets a phase breakdown in its result (and one without
// does not), the per-phase histograms reach /metrics, and the Go runtime
// profiles answer under /debug/pprof/.
func TestServerObservability(t *testing.T) {
	a := testNetwork(t, 300, 4000, 11)
	reg := NewRegistry()
	if _, err := reg.Register("a", a); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1}, reg)

	// Without profile: the breakdown stays out of the payload.
	st := pollDone(t, ts.URL, submit(t, ts.URL, MultiplyRequest{A: Operand{Name: "a"}}))
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Result.Profile != nil {
		t.Fatal("unprofiled job returned a profile")
	}

	// With profile: phases in pipeline order summing to the wall time.
	st = pollDone(t, ts.URL, submit(t, ts.URL, MultiplyRequest{A: Operand{Name: "a"}, Profile: true}))
	if st.State != StateDone {
		t.Fatalf("profiled job failed: %s", st.Error)
	}
	p := st.Result.Profile
	if p == nil {
		t.Fatal("profiled job returned no profile")
	}
	if p.WallSeconds <= 0 || len(p.Phases) == 0 {
		t.Fatalf("degenerate profile: %+v", p)
	}
	var sum float64
	for _, b := range p.Phases {
		sum += b.Seconds
	}
	if diff := sum - p.WallSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("phase seconds sum %v != wall %v", sum, p.WallSeconds)
	}

	// Both jobs fed the per-phase histograms.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metricsText := string(body)
	if !strings.Contains(metricsText, "spgemmd_phase_seconds_bucket{phase=") {
		t.Error("/metrics missing spgemmd_phase_seconds histogram")
	}
	if strings.Contains(metricsText, `phase="other"`) {
		t.Error("/metrics exposes the accounting-only \"other\" phase")
	}

	// The runtime profiles are mounted.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: got %d, want 200", resp.StatusCode)
	}
}
