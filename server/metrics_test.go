package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/prom"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// processGlobal matches the sample lines whose values come from the
// process-wide execution engine and so depend on what else ran.
var processGlobal = regexp.MustCompile(`(?m)^(spgemmd_(?:executor|arena)_\w+) \d+$`)

// TestMetricsGolden drives the metrics with fixed inputs and requires the
// exposition to match the committed golden byte for byte, masking only the
// process-wide executor and arena values.
func TestMetricsGolden(t *testing.T) {
	m := newMetrics(
		func() blockreorg.CacheStats {
			return blockreorg.CacheStats{Hits: 4, Misses: 2, Evictions: 1, Size: 3, Capacity: 128}
		},
		func() (int, int) { return 2, 64 },
	)
	m.submitted.Add(3)
	m.rejected.Add(1)
	m.failed.Add(1)
	m.queueWait.Observe(3e-5)
	m.queueWait.Observe(0.2)
	for _, job := range []struct {
		alg     string
		seconds float64
	}{{"Block-Reorganizer", 0.0042}, {"Block-Reorganizer", 1.234567891}, {"row-product", 12}} {
		m.completed.Add(1)
		m.jobSeconds.Observe(job.seconds, job.alg)
	}
	for _, run := range []struct {
		workload            string
		iters, hits, misses float64
	}{{"mcl", 7, 6, 1}, {"power", 3, 2, 1}} {
		m.iterations.Observe(run.iters, run.workload)
		m.pipelinePlanHits.Add(run.hits)
		m.pipelinePlanMisses.Add(run.misses)
	}
	p := &trace.Profile{Counters: map[string]int64{
		trace.CounterAccumDenseRows: 5,
		trace.CounterAccumSortRows:  1234567,
	}}
	for _, ph := range trace.Phases() {
		p.Phases = append(p.Phases, trace.PhaseBreakdown{Phase: string(ph), Seconds: 0.0123456789})
	}
	m.addPhases(p)

	var got bytes.Buffer
	if err := prom.Write(&got, m.Gather()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	mask := func(b []byte) string { return processGlobal.ReplaceAllString(string(b), "$1 X") }
	if g, w := mask(got.Bytes()), mask(want); g != w {
		t.Fatalf("exposition diverges from testdata/metrics_golden.txt:\n--- got ---\n%s--- want ---\n%s", g, w)
	}
}

// stalledWriter is a ResponseWriter whose Write blocks until released: a
// /metrics client that stopped reading.
type stalledWriter struct {
	header  http.Header
	once    sync.Once
	writing chan struct{} // closed when Write is first entered
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return len(p), nil
}

// TestMetricsStalledScrapeDoesNotBlockSubmissions stalls a /metrics
// response mid-write and requires a submission to be admitted meanwhile:
// rendering must not hold the lock the job accounting takes.
func TestMetricsStalledScrapeDoesNotBlockSubmissions(t *testing.T) {
	s, err := New(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		s.Handler().ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}()
	<-sw.writing
	defer func() {
		close(sw.release)
		<-scraped
	}()

	body, err := json.Marshal(MultiplyRequest{A: Operand{COO: &COOPayload{
		Rows: 2, Cols: 2, I: []int{0, 1}, J: []int{1, 0}, V: []float64{1, 2},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body)))
		status <- rec.Code
	}()
	select {
	case code := <-status:
		if code != http.StatusAccepted {
			t.Fatalf("submission during a stalled scrape: got %d, want 202", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submission blocked behind a stalled /metrics scrape")
	}
}
