package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/blockreorg/blockreorg/internal/datasets"
)

// Outcome values of a Record. Failed outcomes carry the server's failure
// kind as "failed/<kind>" (client, timeout, internal); rejected requests
// never reached the queue (429/503).
const (
	OutcomeDone     = "done"
	OutcomeRejected = "rejected"
)

// FailedOutcome renders a failure kind as a Record outcome.
func FailedOutcome(kind string) string { return "failed/" + kind }

// Record is one request's trace entry — the JSONL schema shared by the
// spgemmd server-side recorder (-trace-out) and the spgemmload live
// runner. Times are seconds; Arrival is the offset from the trace's own
// start.
type Record struct {
	// Seq orders the trace by arrival; it is the line's identity within
	// one trace file.
	Seq int `json:"seq"`
	// ArrivalSeconds is the arrival offset from trace start.
	ArrivalSeconds float64 `json:"arrival_s"`
	// Class is the request's SLO class ("" when the client sent none).
	Class string `json:"class,omitempty"`
	// Kind is "multiply" or "pipeline/<workload>".
	Kind string `json:"kind"`
	// FpA / FpB are the operand structure fingerprints (%016x). FpB is
	// empty for A² requests.
	FpA string `json:"fp_a,omitempty"`
	FpB string `json:"fp_b,omitempty"`
	// Operand shape.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	NNZ  int `json:"nnz,omitempty"`
	// Algorithm and GPU echo the resolved request.
	Algorithm string `json:"algorithm,omitempty"`
	GPU       string `json:"gpu,omitempty"`
	// Outcome is "done", "rejected", or "failed/<kind>".
	Outcome string `json:"outcome"`
	// QueueWaitSeconds is the time from admission to dequeue;
	// ExecSeconds the host wall time of the run itself.
	QueueWaitSeconds float64 `json:"queue_wait_s"`
	ExecSeconds      float64 `json:"exec_s"`
	// PredictedSeconds is the simulated device time of the multiplication
	// (Result.TotalSeconds), recorded as a fact of the run; 0 when the run
	// failed. It is a simulated GPU second and is never compared with the
	// host seconds above.
	PredictedSeconds float64 `json:"predicted_s,omitempty"`
	// PlanCacheHit reports plan reuse.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
	// Phases is the host-measured per-phase breakdown (seconds), from the
	// trace layer's profile.
	Phases map[string]float64 `json:"phases_s,omitempty"`
	// Gen, when present, is the synthesis spec of the operand — enough
	// to rebuild it. Client-side records carry it; server-
	// side records cannot (the server only sees the matrix).
	Gen *datasets.GenSpec `json:"gen,omitempty"`
}

// Latency is the record's end-to-end latency: queue wait plus execution.
func (r *Record) Latency() float64 { return r.QueueWaitSeconds + r.ExecSeconds }

// TraceWriter appends Records as JSONL, safe for concurrent use — the
// serving layer's workers all funnel through one writer.
type TraceWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	n   int
	err error
}

// NewTraceWriter wraps w (typically an append-opened file).
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: bufio.NewWriter(w)}
}

// Append writes one record, assigning its Seq in append order.
func (t *TraceWriter) Append(rec Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	rec.Seq = t.n
	data, err := json.Marshal(&rec)
	if err != nil {
		t.err = err
		return err
	}
	data = append(data, '\n')
	if _, err := t.w.Write(data); err != nil {
		t.err = err
		return err
	}
	t.n++
	return nil
}

// Len reports how many records have been appended.
func (t *TraceWriter) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Flush drains the buffer to the underlying writer.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// ReadTrace parses a JSONL trace, sorted by arrival offset (stable, so
// equal offsets keep file order). Blank lines are skipped; a malformed
// line fails with its number.
func ReadTrace(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sortRecords(out)
	return out, nil
}
