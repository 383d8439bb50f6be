package blockreorg

import (
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// Trace is a phase-level tracing recorder. Attach one to a multiplication
// via Options.Trace and it records host wall time per pipeline phase —
// the precalculation sweeps, classification, B-Splitting, B-Gathering,
// B-Limiting, the simulated kernel launches and the numeric
// expansion — plus the classification populations and the
// execution engine's steal and arena traffic over the run. Call Profile
// on it afterwards for the aggregated breakdown.
//
// A nil Trace (the default) disables tracing at zero cost: the
// instrumented paths neither allocate nor read the clock. A single
// recorder must observe a single multiplication; recorders are safe for
// the concurrent spans one run's parallel phases produce, but sharing one
// across runs folds their profiles together.
type Trace = trace.Recorder

// Profile is the aggregated result of a traced run: per-phase wall time
// and item counts in pipeline order (with the unattributed remainder as
// the trailing "other" phase, so the seconds column sums to the wall
// time), plus the recorded counters and gauges. It marshals to a stable
// JSON schema and renders as CSV via WriteCSV.
type Profile = trace.Profile

// NewTrace returns an enabled tracing recorder whose wall clock starts
// now. Typical use:
//
//	rec := blockreorg.NewTrace()
//	res, err := blockreorg.Multiply(a, b, blockreorg.Options{Trace: rec})
//	prof := rec.Profile() // per-phase breakdown of the run
func NewTrace() *Trace { return trace.New() }

// recordExecutorDelta attributes the process-wide execution engine
// counters that moved during the traced region to the recorder. The
// counters are global, so concurrent multiplications bleed into each
// other's deltas; single-run tools (blockreorg-bench -profile, inspect)
// read them exactly.
func recordExecutorDelta(rec *Trace, before parallel.Stats) {
	after := parallel.ReadStats()
	rec.Add(trace.CounterExecRuns, int64(after.Runs-before.Runs))
	rec.Add(trace.CounterExecInline, int64(after.InlineRuns-before.InlineRuns))
	rec.Add(trace.CounterExecChunks, int64(after.Chunks-before.Chunks))
	rec.Add(trace.CounterExecSteals, int64(after.Steals-before.Steals))
	gets := after.ArenaGets - before.ArenaGets
	news := after.ArenaNews - before.ArenaNews
	rec.Add(trace.CounterArenaGets, int64(gets))
	rec.Add(trace.CounterArenaAllocs, int64(news))
	if gets > 0 {
		rec.Set(trace.GaugeArenaHitRate, 1-float64(news)/float64(gets))
	}
}
