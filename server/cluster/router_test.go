package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/blockreorg/blockreorg/internal/prom"
	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// testNetwork builds a small power-law operand with a seed-determined
// structure: different seeds give different fingerprints.
func testNetwork(t *testing.T, n, nnz int, seed uint64) *sparse.CSR {
	t.Helper()
	m, err := rmat.PowerLaw(n, nnz, 2.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestCluster builds a started in-process cluster and an httptest
// front-end for its router.
func newTestCluster(t *testing.T, n int, cfg server.Config, opts Options) (*Cluster, *httptest.Server) {
	t.Helper()
	c, err := NewInProcess(n, cfg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
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

// register uploads a matrix under name through the router.
func register(t *testing.T, base, name string, m *sparse.CSR) {
	t.Helper()
	body := map[string]any{"name": name, "coo": server.PayloadFromCSR(m)}
	resp := postJSON(t, base+"/v1/matrices", body, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: got status %d, want 201", name, resp.StatusCode)
	}
}

// submit posts a multiply and returns the prefixed job id plus the
// instance that took it.
func submit(t *testing.T, base string, req server.MultiplyRequest) (id, instance string) {
	t.Helper()
	var accepted map[string]string
	resp := postJSON(t, base+"/v1/multiply", req, &accepted)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got status %d, want 202", resp.StatusCode)
	}
	if accepted["job"] == "" || accepted["instance"] == "" {
		t.Fatalf("submit: incomplete accept response %v", accepted)
	}
	return accepted["job"], accepted["instance"]
}

// pollDone polls a prefixed job id through the router until terminal.
func pollDone(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: got status %d", id, resp.StatusCode)
		}
		if st.State == server.StateDone || st.State == server.StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return server.JobStatus{}
}

// scrapeMetric fetches /metrics and returns the value of the first sample
// line whose name+labels exactly match prefix.
func scrapeMetric(t *testing.T, base, prefix string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", prefix, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in cluster /metrics", prefix)
	return 0
}

func TestClusterEndToEnd(t *testing.T) {
	_, ts := newTestCluster(t, 2, server.Config{Workers: 1}, Options{})

	a := testNetwork(t, 200, 2000, 11)
	register(t, ts.URL, "net", a)

	// The registration is visible through the router's listing.
	var listing struct {
		Matrices []map[string]any `json:"matrices"`
	}
	resp, err := http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Matrices) != 1 {
		t.Fatalf("router lists %d matrices, want 1", len(listing.Matrices))
	}

	// Multiply by name: the job id comes back instance-prefixed and the
	// poll routes through the router to the owning instance.
	id, instance := submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
	if !strings.HasPrefix(id, instance+":") {
		t.Fatalf("job id %q is not prefixed with instance %q", id, instance)
	}
	st := pollDone(t, ts.URL, id)
	if st.State != server.StateDone {
		t.Fatalf("job failed: %s %s", st.ErrorKind, st.Error)
	}
	if st.ID != id {
		t.Fatalf("poll echoed id %q, want the prefixed %q", st.ID, id)
	}
	if st.Result == nil || st.Result.NNZC == 0 {
		t.Fatal("job finished without a result")
	}

	// The cluster exposition carries the router counters and the
	// instance-labelled spgemmd metrics.
	if v := scrapeMetric(t, ts.URL, `cluster_instances`); v != 2 {
		t.Fatalf("cluster_instances = %v, want 2", v)
	}
	done := scrapeMetric(t, ts.URL, fmt.Sprintf(`spgemmd_jobs_completed_total{instance=%q}`, instance))
	if done != 1 {
		t.Fatalf("relabelled completed counter = %v, want 1", done)
	}
}

func TestClusterAffinityRoutesRepeatsTogether(t *testing.T) {
	_, ts := newTestCluster(t, 3, server.Config{Workers: 1}, Options{Policy: PolicyAffinity})
	register(t, ts.URL, "net", testNetwork(t, 120, 800, 3))

	var first string
	for i := range 5 {
		id, instance := submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
		if i == 0 {
			first = instance
		} else if instance != first {
			t.Fatalf("repeat %d routed to %s, want pinned instance %s", i, instance, first)
		}
		pollDone(t, ts.URL, id)
	}
	if hits := scrapeMetric(t, ts.URL, fmt.Sprintf(`cluster_routed_total{policy=%q,affinity_hit="true"}`, PolicyAffinity)); hits != 4 {
		t.Fatalf("affinity hits = %v, want 4 (5 submissions, first is cold)", hits)
	}
}

func TestClusterRoundRobinSpreads(t *testing.T) {
	_, ts := newTestCluster(t, 2, server.Config{Workers: 1}, Options{Policy: PolicyRoundRobin})
	register(t, ts.URL, "net", testNetwork(t, 120, 800, 5))

	counts := map[string]int{}
	for range 6 {
		id, instance := submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
		counts[instance]++
		pollDone(t, ts.URL, id)
	}
	if counts["i0"] != 3 || counts["i1"] != 3 {
		t.Fatalf("round-robin distribution %v, want 3/3", counts)
	}
}

func TestClusterAdmissionControl(t *testing.T) {
	// 1 token, effectively no refill within the test's lifetime.
	_, ts := newTestCluster(t, 2, server.Config{Workers: 1},
		Options{AdmitRate: 0.0001, AdmitBurst: 1})
	register(t, ts.URL, "net", testNetwork(t, 120, 800, 7))

	id, _ := submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
	resp := postJSON(t, ts.URL+"/v1/multiply", server.MultiplyRequest{A: server.Operand{Name: "net"}}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	pollDone(t, ts.URL, id)
	if v := scrapeMetric(t, ts.URL, "cluster_admission_rejected_total"); v != 1 {
		t.Fatalf("cluster_admission_rejected_total = %v, want 1", v)
	}
}

func TestClusterJobIDErrors(t *testing.T) {
	_, ts := newTestCluster(t, 1, server.Config{Workers: 1}, Options{})
	for _, id := range []string{"j-0", "ghost:j-0"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("poll %q: got %d, want 404", id, resp.StatusCode)
		}
	}
}

// clusterStatus fetches GET /cluster/status.
func clusterStatus(t *testing.T, base string) ClusterStatus {
	t.Helper()
	resp, err := http.Get(base + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestClusterDrainWithInFlightJobs(t *testing.T) {
	_, ts := newTestCluster(t, 2, server.Config{Workers: 1}, Options{Policy: PolicyRoundRobin})
	register(t, ts.URL, "net", testNetwork(t, 200, 2000, 9))

	// Pile a few jobs onto the cluster and drain i0 while they run. The
	// drain must wait for i0's routed jobs without any client polling.
	var ids []string
	for range 6 {
		id, _ := submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
		ids = append(ids, id)
	}
	resp := postJSON(t, ts.URL+"/cluster/drain", map[string]any{"instance": "i0", "timeout_s": 30.0}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: got status %d, want 200", resp.StatusCode)
	}

	st := clusterStatus(t, ts.URL)
	for _, row := range st.Instances {
		if row.Name == "i0" {
			if row.State != "cordoned" {
				t.Fatalf("i0 state %q after drain, want cordoned", row.State)
			}
			if row.Outstanding != 0 || row.QueueDepth != 0 {
				t.Fatalf("i0 drained but still holds %d outstanding, depth %d", row.Outstanding, row.QueueDepth)
			}
		}
	}

	// New work routes around the cordon.
	for range 3 {
		_, instance := submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
		if instance == "i0" {
			t.Fatal("submission routed to a cordoned instance")
		}
	}

	// Uncordon returns it to the rotation.
	resp = postJSON(t, ts.URL+"/cluster/uncordon", map[string]any{"instance": "i0"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncordon: got status %d, want 200", resp.StatusCode)
	}
	if st := clusterStatus(t, ts.URL); st.Instances[0].State != "up" {
		t.Fatalf("i0 state %q after uncordon, want up", st.Instances[0].State)
	}

	// The drained jobs really finished.
	for _, id := range ids {
		if st := pollDone(t, ts.URL, id); st.State != server.StateDone {
			t.Fatalf("job %s: %s %s", id, st.ErrorKind, st.Error)
		}
	}
}

func TestClusterRollingDrain(t *testing.T) {
	_, ts := newTestCluster(t, 3, server.Config{Workers: 1}, Options{Policy: PolicyRoundRobin})
	register(t, ts.URL, "net", testNetwork(t, 200, 2000, 13))

	for range 6 {
		submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
	}
	resp := postJSON(t, ts.URL+"/cluster/drain", map[string]any{"rolling": true, "timeout_s": 30.0}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling drain: got status %d, want 200", resp.StatusCode)
	}
	st := clusterStatus(t, ts.URL)
	if st.TrackedJobs != 0 {
		t.Fatalf("%d jobs still tracked after a rolling drain, want 0", st.TrackedJobs)
	}
	for _, row := range st.Instances {
		if row.State != "up" {
			t.Fatalf("instance %s state %q after rolling drain, want up", row.Name, row.State)
		}
		if row.QueueDepth != 0 {
			t.Fatalf("instance %s queue depth %d after rolling drain, want 0", row.Name, row.QueueDepth)
		}
	}
}

func TestClusterDrainBadRequests(t *testing.T) {
	_, ts := newTestCluster(t, 1, server.Config{Workers: 1}, Options{})
	if resp := postJSON(t, ts.URL+"/cluster/drain", map[string]any{"instance": "ghost"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain of unknown instance: got %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/cluster/drain", map[string]any{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("drain with no selector: got %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/cluster/drain", map[string]any{"instance": "i0", "rolling": true}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("drain with both selectors: got %d, want 400", resp.StatusCode)
	}
}

func TestClusterShutdownRefusesWork(t *testing.T) {
	c, err := NewInProcess(2, server.Config{Workers: 1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/multiply", server.MultiplyRequest{}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission after shutdown: got %d, want 503", resp.StatusCode)
	}
}

func TestClusterMetricsAggregation(t *testing.T) {
	_, ts := newTestCluster(t, 2, server.Config{Workers: 1}, Options{Policy: PolicyRoundRobin})
	register(t, ts.URL, "net", testNetwork(t, 120, 800, 17))
	for range 4 {
		id, _ := submit(t, ts.URL, server.MultiplyRequest{A: server.Operand{Name: "net"}})
		pollDone(t, ts.URL, id)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()

	// Every TYPE line appears exactly once.
	seen := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[line]++
		}
	}
	for line, n := range seen {
		if n != 1 {
			t.Fatalf("%q appears %d times, want 1", line, n)
		}
	}

	// The exposition is in the canonical form prom.Write emits.
	var rewritten bytes.Buffer
	if err := prom.Write(&rewritten, prom.Parse([]byte(text))); err != nil {
		t.Fatal(err)
	}
	if rewritten.String() != text {
		t.Fatalf("prom.Write(prom.Parse(exposition)) differs from the exposition:\n--- got ---\n%s--- want ---\n%s", rewritten.String(), text)
	}

	// Both instances contribute relabelled samples.
	for _, inst := range []string{"i0", "i1"} {
		if !strings.Contains(text, fmt.Sprintf(`spgemmd_jobs_completed_total{instance=%q}`, inst)) {
			t.Fatalf("aggregated metrics carry no samples for %s", inst)
		}
	}

	// The cluster-wide plan-cache counters are the instance sums: 4 jobs
	// over one structure on 2 instances round-robin = 2 misses + 2 hits.
	hits := scrapeMetric(t, ts.URL, "cluster_plancache_hits_total")
	misses := scrapeMetric(t, ts.URL, "cluster_plancache_misses_total")
	if hits+misses != 4 {
		t.Fatalf("cluster plan-cache traffic %v hits + %v misses, want 4 total", hits, misses)
	}
	if misses != 2 {
		t.Fatalf("cluster plan-cache misses = %v, want 2 (one cold per instance)", misses)
	}
}

// endlessBackend answers every request with 200 and a body that never
// ends: a remote instance that floods its scrape.
type endlessBackend struct{}

func (endlessBackend) RoundTrip(*http.Request) (*http.Response, error) {
	line := []byte("spgemmd_plancache_hits_total 1\n")
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(&repeatReader{line: line})}, nil
}

// repeatReader yields line over and over.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

// TestClusterMetricsOversizeScrape puts a flooding instance beside a real
// one: its scrape is cut at the cap and counted as a failure, and none of
// its samples reach the cluster exposition or the plan-cache sums.
func TestClusterMetricsOversizeScrape(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewInstance("i0", srv)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter([]*Instance{good, {name: "i1", backend: endlessBackend{}}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	if v := scrapeMetric(t, ts.URL, "cluster_scrape_failures"); v != 1 {
		t.Fatalf("cluster_scrape_failures = %v, want 1 (the flooding instance)", v)
	}
	if v := scrapeMetric(t, ts.URL, "cluster_plancache_hits_total"); v != 0 {
		t.Fatalf("cluster_plancache_hits_total = %v, want 0: the oversize scrape was summed", v)
	}
	if v := scrapeMetric(t, ts.URL, `spgemmd_plancache_hits_total{instance="i0"}`); v != 0 {
		t.Fatalf("i0 plan-cache hits = %v, want 0", v)
	}
}

// TestRegisterRejectsUnknownFieldsLikeAnInstance: a registration body with
// a misspelled key answers 400 from a lone spgemmd and from the router of
// an in-process cluster, which decodes it itself because its instances
// share its registry and never see the body.
func TestRegisterRejectsUnknownFieldsLikeAnInstance(t *testing.T) {
	body := []byte(`{"name":"net","coo":{"rows":1,"cols":1,"i":[0],"j":[0],"v":[1],"vals":[2]}}`)
	srv, err := server.New(server.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lone := httptest.NewServer(srv.Handler())
	defer lone.Close()
	_, routed := newTestCluster(t, 2, server.Config{Workers: 1}, Options{})
	for _, base := range []string{lone.URL, routed.URL} {
		resp, err := http.Post(base+"/v1/matrices", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"vals\"`) {
			t.Errorf("%s: status %d (%s), want 400 naming the unknown field", base, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
}
