package server

import (
	"fmt"
	"time"

	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/workload"
)

// The request-trace recorder. When Config.RequestTrace is set, the server
// appends one workload.Record per terminal request — completed, failed, or
// rejected at admission — as JSONL. The trace feeds `spgemmload replay`,
// `score` and `calibrate`: arrival offsets are measured from the server's
// construction, so a recorded burst replays with its original spacing.

// traceRecord appends one record and flushes, so a crash or kill loses at
// most the record being written. Append errors are sticky inside the writer
// and deliberately not fatal to serving: losing trace lines must never fail
// requests.
func (s *Server) traceRecord(rec workload.Record) {
	if s.reqTrace == nil {
		return
	}
	rec.ArrivalSeconds = workload.Round6(rec.ArrivalSeconds)
	_ = s.reqTrace.Append(rec)
	_ = s.reqTrace.Flush()
}

// traceJob builds the fields shared by every outcome of a job: arrival
// offset, class, kind, operand identity and shape.
func (s *Server) traceJob(j *job) workload.Record {
	rec := workload.Record{
		ArrivalSeconds: j.submitted.Sub(s.traceStart).Seconds(),
		Class:          j.req.Class,
		Kind:           "multiply",
		FpA:            fmt.Sprintf("%016x", j.fpA),
		Rows:           j.a.Rows,
		Cols:           j.a.Cols,
		NNZ:            j.a.NNZ(),
	}
	if j.req.B != nil {
		rec.FpB = fmt.Sprintf("%016x", j.fpB)
	}
	if j.preq != nil {
		rec.Kind, rec.Class = "pipeline/"+j.preq.Workload, j.preq.Class
	}
	return rec
}

// traceFailed records a terminal failure.
func (s *Server) traceFailed(j *job, kind string, queueWait time.Duration) {
	if s.reqTrace == nil {
		return
	}
	rec := s.traceJob(j)
	rec.Outcome = workload.FailedOutcome(kind)
	rec.QueueWaitSeconds = workload.Round6(queueWait.Seconds())
	s.traceRecord(rec)
}

// traceDone records a completed job.
func (s *Server) traceDone(j *job, out *JobResult, profile *trace.Profile) {
	if s.reqTrace == nil {
		return
	}
	rec := s.traceJob(j)
	FillDoneRecord(&rec, out, profile)
	s.traceRecord(rec)
}

// FillDoneRecord sets the fields of a completed request's trace record
// from its job result and host phase profile: outcome, resolved algorithm
// and device, queue wait, execution wall, the gpusim prediction (the
// result's simulated total; zero for pipeline runs), plan reuse, and the
// per-phase seconds. The server's recorder and spgemmload's live runner
// both build their done records through it, so the two traces of one
// request agree.
func FillDoneRecord(rec *workload.Record, out *JobResult, profile *trace.Profile) {
	rec.Outcome = workload.OutcomeDone
	rec.Algorithm = out.Algorithm
	rec.GPU = out.Device
	rec.QueueWaitSeconds = workload.Round6(out.QueueWaitSeconds)
	rec.ExecSeconds = workload.Round6(out.WallSeconds)
	rec.PredictedSeconds = out.TotalSeconds
	rec.PlanCacheHit = out.PlanCacheHit
	if profile != nil && len(profile.Phases) > 0 {
		rec.Phases = make(map[string]float64, len(profile.Phases))
		for _, p := range profile.Phases {
			rec.Phases[p.Phase] += p.Seconds
		}
	}
}

// traceRejected records an admission-queue rejection (429). The request
// never became a job, so the record is built from the handler's resolved
// operands.
func (s *Server) traceRejected(j *job) {
	if s.reqTrace == nil {
		return
	}
	rec := s.traceJob(j)
	rec.Outcome = workload.OutcomeRejected
	s.traceRecord(rec)
}
