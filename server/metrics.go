package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// latencyBuckets are the upper bounds (seconds) of the wall-clock service
// time histogram, chosen to straddle the sub-millisecond plan-cache hits
// and multi-second cold large-network jobs.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// latencyHist is a fixed-bucket cumulative histogram.
type latencyHist struct {
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // counts[i] = observations <= buckets[i]
	count   uint64
	sum     float64
}

func newHist(buckets []float64) *latencyHist {
	return &latencyHist{buckets: buckets, counts: make([]uint64, len(buckets))}
}

func (h *latencyHist) observe(v float64) {
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.count++
	h.sum += v
}

// phaseBuckets are the upper bounds (seconds) of the per-phase histograms.
// Phases are finer-grained than whole jobs, so the grid starts at 100µs.
var phaseBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// queueWaitBuckets are the upper bounds (seconds) of the admission-queue
// wait histogram. An uncontended dequeue is microseconds; the tail covers
// saturated-queue waits up to the default job timeout.
var queueWaitBuckets = []float64{0.00001, 0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// iterationBuckets are the upper bounds of the per-workload iteration
// count histogram: convergent pipelines usually stop within a handful of
// iterations, runaway ones pile into the tail.
var iterationBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 64}

// metrics aggregates the serving counters. The plan cache and queue report
// through their own structures; everything here is job accounting.
type metrics struct {
	mu        sync.Mutex
	submitted uint64
	completed uint64
	failed    uint64
	rejected  uint64
	byAlg     map[string]*latencyHist
	byPhase   map[string]*latencyHist
	// Pipeline jobs: iteration counts per workload plus the runs'
	// cross-iteration plan-cache traffic (the Runner's cache, distinct
	// from the server's request-level plan cache reported above).
	byWorkload       map[string]*latencyHist
	pipelinePlanHits uint64
	pipelinePlanMiss uint64
	// queueWait tracks time from admission to dequeue across all jobs —
	// the latency component the per-algorithm service histograms exclude.
	queueWait *latencyHist
	// accumRows counts merged output rows per accumulator strategy across
	// all completed jobs, fed from the per-job trace counters.
	accumDenseRows uint64
	accumHashRows  uint64
	accumSortRows  uint64
}

func newMetrics() *metrics {
	return &metrics{
		byAlg:      make(map[string]*latencyHist),
		byPhase:    make(map[string]*latencyHist),
		byWorkload: make(map[string]*latencyHist),
		queueWait:  newHist(queueWaitBuckets),
	}
}

// addQueueWait records one job's admission-to-dequeue wait.
func (m *metrics) addQueueWait(seconds float64) {
	m.mu.Lock()
	m.queueWait.observe(seconds)
	m.mu.Unlock()
}

func (m *metrics) addSubmitted() { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *metrics) addRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *metrics) addFailed()    { m.mu.Lock(); m.failed++; m.mu.Unlock() }

// addCompleted records a successful job and its service latency under the
// algorithm that ran it.
func (m *metrics) addCompleted(alg string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	h, ok := m.byAlg[alg]
	if !ok {
		h = newHist(latencyBuckets)
		m.byAlg[alg] = h
	}
	h.observe(seconds)
}

// addPipeline records one completed pipeline run: its iteration count
// under the workload's histogram and its plan-cache hit/miss traffic.
func (m *metrics) addPipeline(workload string, iterations, hits, misses int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.byWorkload[workload]
	if !ok {
		h = newHist(iterationBuckets)
		m.byWorkload[workload] = h
	}
	h.observe(float64(iterations))
	m.pipelinePlanHits += uint64(hits)
	m.pipelinePlanMiss += uint64(misses)
}

// addPhases folds one job's phase breakdown into the per-phase histograms
// and its accumulator-strategy row counts into the strategy counters. The
// unattributed remainder ("other") is skipped — it is an artifact of the
// profile's accounting, not a pipeline stage.
func (m *metrics) addPhases(p *trace.Profile) {
	if p == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range p.Phases {
		if b.Phase == string(trace.PhaseOther) {
			continue
		}
		h, ok := m.byPhase[b.Phase]
		if !ok {
			h = newHist(phaseBuckets)
			m.byPhase[b.Phase] = h
		}
		h.observe(b.Seconds)
	}
	m.accumDenseRows += uint64(p.Counter(trace.CounterAccumDenseRows))
	m.accumHashRows += uint64(p.Counter(trace.CounterAccumHashRows))
	m.accumSortRows += uint64(p.Counter(trace.CounterAccumSortRows))
}

// write renders the metrics in Prometheus text exposition format. The
// queue and cache figures are passed in by the server, which owns them.
func (m *metrics) write(w io.Writer, cache blockreorg.CacheStats, queueDepth, queueCap int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# TYPE spgemmd_jobs_submitted_total counter\n")
	fmt.Fprintf(w, "spgemmd_jobs_submitted_total %d\n", m.submitted)
	fmt.Fprintf(w, "# TYPE spgemmd_jobs_completed_total counter\n")
	fmt.Fprintf(w, "spgemmd_jobs_completed_total %d\n", m.completed)
	fmt.Fprintf(w, "# TYPE spgemmd_jobs_failed_total counter\n")
	fmt.Fprintf(w, "spgemmd_jobs_failed_total %d\n", m.failed)
	fmt.Fprintf(w, "# TYPE spgemmd_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "spgemmd_jobs_rejected_total %d\n", m.rejected)

	fmt.Fprintf(w, "# TYPE spgemmd_queue_depth gauge\n")
	fmt.Fprintf(w, "spgemmd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# TYPE spgemmd_queue_capacity gauge\n")
	fmt.Fprintf(w, "spgemmd_queue_capacity %d\n", queueCap)

	fmt.Fprintf(w, "# TYPE spgemmd_queue_wait_seconds histogram\n")
	writePlainHist(w, "spgemmd_queue_wait_seconds", m.queueWait)

	fmt.Fprintf(w, "# TYPE spgemmd_plancache_hits_total counter\n")
	fmt.Fprintf(w, "spgemmd_plancache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "# TYPE spgemmd_plancache_misses_total counter\n")
	fmt.Fprintf(w, "spgemmd_plancache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "# TYPE spgemmd_plancache_evictions_total counter\n")
	fmt.Fprintf(w, "spgemmd_plancache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(w, "# TYPE spgemmd_plancache_size gauge\n")
	fmt.Fprintf(w, "spgemmd_plancache_size %d\n", cache.Size)

	// The execution engine all jobs share: work-stealing executor runs and
	// arena traffic. A high steal count means the weighted chunking alone
	// did not balance the load; a high arena hit ratio (1 - allocs/gets)
	// means scratch is actually recycling.
	ps := parallel.ReadStats()
	fmt.Fprintf(w, "# TYPE spgemmd_executor_parallel_runs_total counter\n")
	fmt.Fprintf(w, "spgemmd_executor_parallel_runs_total %d\n", ps.Runs)
	fmt.Fprintf(w, "# TYPE spgemmd_executor_inline_runs_total counter\n")
	fmt.Fprintf(w, "spgemmd_executor_inline_runs_total %d\n", ps.InlineRuns)
	fmt.Fprintf(w, "# TYPE spgemmd_executor_chunks_total counter\n")
	fmt.Fprintf(w, "spgemmd_executor_chunks_total %d\n", ps.Chunks)
	fmt.Fprintf(w, "# TYPE spgemmd_executor_steals_total counter\n")
	fmt.Fprintf(w, "spgemmd_executor_steals_total %d\n", ps.Steals)
	fmt.Fprintf(w, "# TYPE spgemmd_arena_gets_total counter\n")
	fmt.Fprintf(w, "spgemmd_arena_gets_total %d\n", ps.ArenaGets)
	fmt.Fprintf(w, "# TYPE spgemmd_arena_allocs_total counter\n")
	fmt.Fprintf(w, "spgemmd_arena_allocs_total %d\n", ps.ArenaNews)

	// Accumulator selection across all completed jobs: how many merged
	// output rows ran under each strategy (see sparse.AccumulatorKind).
	fmt.Fprintf(w, "# TYPE spgemmd_accum_rows_total counter\n")
	fmt.Fprintf(w, "spgemmd_accum_rows_total{strategy=\"dense\"} %d\n", m.accumDenseRows)
	fmt.Fprintf(w, "spgemmd_accum_rows_total{strategy=\"hash\"} %d\n", m.accumHashRows)
	fmt.Fprintf(w, "spgemmd_accum_rows_total{strategy=\"sort\"} %d\n", m.accumSortRows)

	fmt.Fprintf(w, "# TYPE spgemmd_pipeline_plan_hits_total counter\n")
	fmt.Fprintf(w, "spgemmd_pipeline_plan_hits_total %d\n", m.pipelinePlanHits)
	fmt.Fprintf(w, "# TYPE spgemmd_pipeline_plan_misses_total counter\n")
	fmt.Fprintf(w, "spgemmd_pipeline_plan_misses_total %d\n", m.pipelinePlanMiss)
	workloads := make([]string, 0, len(m.byWorkload))
	for wl := range m.byWorkload {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "# TYPE spgemmd_pipeline_iterations histogram\n")
	for _, wl := range workloads {
		writeHist(w, "spgemmd_pipeline_iterations", "workload", wl, m.byWorkload[wl])
	}

	algs := make([]string, 0, len(m.byAlg))
	for alg := range m.byAlg {
		algs = append(algs, alg)
	}
	sort.Strings(algs)
	fmt.Fprintf(w, "# TYPE spgemmd_job_seconds histogram\n")
	for _, alg := range algs {
		h := m.byAlg[alg]
		writeHist(w, "spgemmd_job_seconds", "algorithm", alg, h)
	}

	// Host-side phase timings across all completed jobs, fed from the
	// per-job trace profiles (see internal/trace for the taxonomy).
	phases := make([]string, 0, len(m.byPhase))
	for ph := range m.byPhase {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	fmt.Fprintf(w, "# TYPE spgemmd_phase_seconds histogram\n")
	for _, ph := range phases {
		writeHist(w, "spgemmd_phase_seconds", "phase", ph, m.byPhase[ph])
	}
}

// writePlainHist renders one unlabelled cumulative histogram in Prometheus
// text exposition format.
func writePlainHist(w io.Writer, name string, h *latencyHist) {
	for i, ub := range h.buckets {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// writeHist renders one labelled cumulative histogram in Prometheus text
// exposition format.
func writeHist(w io.Writer, name, label, value string, h *latencyHist) {
	for i, ub := range h.buckets {
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, ub, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, h.count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, h.sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.count)
}
