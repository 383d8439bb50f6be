package server

import (
	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/prom"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// latencyBuckets are the upper bounds (seconds) of the wall-clock service
// time histogram, chosen to straddle the sub-millisecond plan-cache hits
// and multi-second cold large-network jobs.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

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

// metrics is the server's /metrics registry. Job accounting lives in the
// registry's families; the plan cache, the admission queue and the shared
// execution engine keep their own totals, read at render time.
type metrics struct {
	*prom.Registry
	submitted, completed, failed, rejected prom.Counter
	queueWait                              prom.Histogram
	// accumRows counts merged output rows per accumulator strategy,
	// fed from the per-job trace counters.
	accumRows prom.Counter
	// Pipeline jobs: the runs' cross-iteration plan-cache traffic (the
	// Runner's cache, distinct from the request-level cache above) and
	// iteration counts per workload.
	pipelinePlanHits, pipelinePlanMisses prom.Counter
	iterations                           prom.Histogram
	jobSeconds, phaseSeconds             prom.Histogram
}

// newMetrics registers the families in exposition order. cache and queue
// report the plan cache's totals and the admission queue's depth and
// capacity.
func newMetrics(cache func() blockreorg.CacheStats, queue func() (depth, capacity int)) *metrics {
	r := prom.NewRegistry()
	m := &metrics{
		Registry:  r,
		submitted: r.Counter("spgemmd_jobs_submitted_total"),
		completed: r.Counter("spgemmd_jobs_completed_total"),
		failed:    r.Counter("spgemmd_jobs_failed_total"),
		rejected:  r.Counter("spgemmd_jobs_rejected_total"),
	}
	r.GaugeFunc("spgemmd_queue_depth", func() float64 { d, _ := queue(); return float64(d) })
	r.GaugeFunc("spgemmd_queue_capacity", func() float64 { _, c := queue(); return float64(c) })
	m.queueWait = r.Histogram("spgemmd_queue_wait_seconds", queueWaitBuckets)

	r.CounterFunc("spgemmd_plancache_hits_total", func() float64 { return float64(cache().Hits) })
	r.CounterFunc("spgemmd_plancache_misses_total", func() float64 { return float64(cache().Misses) })
	r.CounterFunc("spgemmd_plancache_evictions_total", func() float64 { return float64(cache().Evictions) })
	r.GaugeFunc("spgemmd_plancache_size", func() float64 { return float64(cache().Size) })

	// The execution engine all jobs share: work-stealing executor runs and
	// arena traffic. A high steal count means the weighted chunking alone
	// did not balance the load; a high arena hit ratio (1 - allocs/gets)
	// means scratch is actually recycling. The totals are process-wide.
	r.CounterFunc("spgemmd_executor_parallel_runs_total", func() float64 { return float64(parallel.ReadStats().Runs) })
	r.CounterFunc("spgemmd_executor_inline_runs_total", func() float64 { return float64(parallel.ReadStats().InlineRuns) })
	r.CounterFunc("spgemmd_executor_chunks_total", func() float64 { return float64(parallel.ReadStats().Chunks) })
	r.CounterFunc("spgemmd_executor_steals_total", func() float64 { return float64(parallel.ReadStats().Steals) })
	r.CounterFunc("spgemmd_arena_gets_total", func() float64 { return float64(parallel.ReadStats().ArenaGets) })
	r.CounterFunc("spgemmd_arena_allocs_total", func() float64 { return float64(parallel.ReadStats().ArenaNews) })

	m.accumRows = r.Counter("spgemmd_accum_rows_total", "strategy")
	for _, strategy := range []string{"dense", "sort"} {
		m.accumRows.Add(0, strategy)
	}
	m.pipelinePlanHits = r.Counter("spgemmd_pipeline_plan_hits_total")
	m.pipelinePlanMisses = r.Counter("spgemmd_pipeline_plan_misses_total")
	m.iterations = r.Histogram("spgemmd_pipeline_iterations", iterationBuckets, "workload")
	m.jobSeconds = r.Histogram("spgemmd_job_seconds", latencyBuckets, "algorithm")
	// Host-side phase timings across all completed jobs, fed from the
	// per-job trace profiles (see internal/trace for the taxonomy).
	m.phaseSeconds = r.Histogram("spgemmd_phase_seconds", phaseBuckets, "phase")
	return m
}

// addPhases folds one job's phase breakdown into the per-phase histograms
// and its accumulator-strategy row counts into the strategy counters. The
// unattributed remainder ("other") is skipped — it is an artifact of the
// profile's accounting, not a pipeline stage.
func (m *metrics) addPhases(p *trace.Profile) {
	for _, b := range p.Phases {
		if b.Phase != string(trace.PhaseOther) {
			m.phaseSeconds.Observe(b.Seconds, b.Phase)
		}
	}
	m.accumRows.Add(float64(p.Counter(trace.CounterAccumDenseRows)), "dense")
	m.accumRows.Add(float64(p.Counter(trace.CounterAccumSortRows)), "sort")
}
