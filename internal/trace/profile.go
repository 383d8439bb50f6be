package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// PhaseBreakdown aggregates every span of one phase.
type PhaseBreakdown struct {
	// Phase is the taxonomy name (see Phases).
	Phase string `json:"phase"`
	// Calls counts the spans recorded under the phase.
	Calls int `json:"calls"`
	// Seconds is the summed wall time of those spans.
	Seconds float64 `json:"seconds"`
	// Share is Seconds over the profile's wall time, 0..1.
	Share float64 `json:"share"`
	// Items sums the item counts the spans reported (nnz processed,
	// blocks launched, rows merged); zero when the phase reports none.
	Items int64 `json:"items,omitempty"`
}

// Profile is the aggregated outcome of one traced region: phase-resolved
// wall time plus the recorded counters and gauges. The JSON field set is a
// stable schema (pinned by a golden-file test); consumers may rely on it.
type Profile struct {
	// WallSeconds is the recorder's lifetime, New to Profile.
	WallSeconds float64 `json:"wall_seconds"`
	// Phases holds the non-empty phases in pipeline order. The "other"
	// entry carries the unattributed remainder, so the Seconds column
	// sums to WallSeconds.
	Phases []PhaseBreakdown `json:"phases"`
	// Counters and Gauges are the named scalars the pipeline recorded
	// (classification populations, executor deltas, factors chosen).
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Profile aggregates the recorder's state. Wall time is measured from New
// to this call; the spans are folded per phase in taxonomy order and the
// unattributed remainder becomes the trailing "other" phase. Safe to call
// while spans are still being recorded (the snapshot is consistent), and
// callable more than once.
func (r *Recorder) Profile() *Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	wall := time.Since(r.started)
	spans := make([]span, len(r.spans))
	copy(spans, r.spans)
	counters := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()

	// Durations are summed as integers and converted once per phase, so
	// the totals are exact and independent of span order.
	agg := make(map[Phase]*PhaseBreakdown, len(spans))
	durs := make(map[Phase]time.Duration, len(spans))
	var accounted time.Duration
	for _, s := range spans {
		b := agg[s.phase]
		if b == nil {
			b = &PhaseBreakdown{Phase: string(s.phase)}
			agg[s.phase] = b
		}
		b.Calls++
		b.Items += s.items
		durs[s.phase] += s.dur
		accounted += s.dur
	}
	for ph, b := range agg {
		b.Seconds = durs[ph].Seconds()
	}
	p := &Profile{WallSeconds: wall.Seconds()}
	if len(counters) > 0 {
		p.Counters = counters
	}
	if len(gauges) > 0 {
		p.Gauges = gauges
	}
	for _, ph := range Phases() {
		if b, ok := agg[ph]; ok {
			p.Phases = append(p.Phases, *b)
			delete(agg, ph)
		}
	}
	// Phases outside the taxonomy (callers may invent their own), in
	// stable name order.
	if len(agg) > 0 {
		extra := make([]string, 0, len(agg))
		for ph := range agg {
			extra = append(extra, string(ph))
		}
		sort.Strings(extra)
		for _, ph := range extra {
			p.Phases = append(p.Phases, *agg[Phase(ph)])
		}
	}
	if rest := wall - accounted; rest > 0 {
		p.Phases = append(p.Phases, PhaseBreakdown{
			Phase: string(PhaseOther), Calls: 1, Seconds: rest.Seconds(),
		})
	}
	if p.WallSeconds > 0 {
		for i := range p.Phases {
			p.Phases[i].Share = p.Phases[i].Seconds / p.WallSeconds
		}
	}
	return p
}

// PhaseSeconds returns the summed wall time of one phase (0 when absent).
func (p *Profile) PhaseSeconds(phase Phase) float64 {
	for _, b := range p.Phases {
		if b.Phase == string(phase) {
			return b.Seconds
		}
	}
	return 0
}

// Counter returns a recorded counter (0 when absent).
func (p *Profile) Counter(name string) int64 { return p.Counters[name] }

// WriteCSV renders the phase table as CSV: phase, calls, seconds, share,
// items.
func (p *Profile) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "calls", "seconds", "share", "items"}); err != nil {
		return err
	}
	for _, b := range p.Phases {
		rec := []string{
			b.Phase,
			strconv.Itoa(b.Calls),
			strconv.FormatFloat(b.Seconds, 'g', -1, 64),
			fmt.Sprintf("%.4f", b.Share),
			strconv.FormatInt(b.Items, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
