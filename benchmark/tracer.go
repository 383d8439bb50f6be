package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records a span around each call the benchmark makes into one of
// the program's layers: its name, start, end, the span that caused it and
// the request it belongs to. Spans stay in memory and are written once, when
// the run ends. A nil tracer records nothing; the untraced run, which
// measures the end-to-end metrics, uses one.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one recorded call. Times are nanoseconds since the run started;
// Parent 0 marks a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name, request string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request, StartNS: now,
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
}

// timeCall runs fn inside a span and returns its wall and CPU time.
func (t *tracer) timeCall(parent int, name, request string, fn func() error) (cost, error) {
	id := t.begin(parent, name, request)
	start := now()
	err := fn()
	c := start.since()
	t.end(id)
	return c, err
}

// timeOp times one operation of a workload's measured phase: the reference
// kernel, then fn inside a span.
func (t *tracer) timeOp(parent int, name, request string, fn func() error) (cost, error) {
	ref := referenceMS()
	c, err := t.timeCall(parent, name, request, fn)
	c.refMS = ref
	return c, err
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	n := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing %d spans: %w", n, err)
	}
	return nil
}
