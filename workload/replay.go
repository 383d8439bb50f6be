package workload

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// ReplayOptions configures a virtual replay.
type ReplayOptions struct {
	// Workers is the simulated worker-pool size (default 2, matching the
	// server default).
	Workers int `json:"workers"`
	// Speed compresses the recorded arrival timeline: 2 replays the same
	// requests at twice the arrival rate, 0.5 at half. Default 1.
	Speed float64 `json:"speed"`
	// QueueDepth bounds the simulated admission queue; arrivals beyond it
	// are rejected, like the server's 429. 0 means unbounded.
	QueueDepth int `json:"queue_depth,omitempty"`
	// ServiceJitter perturbs each replayed service time by a factor drawn
	// uniformly from [1−j, 1+j] using Seed — a sensitivity knob for "how
	// stable is this SLO verdict?". 0 (the default) replays the recorded
	// service times exactly.
	ServiceJitter float64 `json:"service_jitter,omitempty"`
	// Seed drives ServiceJitter's draws; ignored when jitter is 0. The
	// same trace, options and seed always produce the same replay.
	Seed uint64 `json:"seed,omitempty"`
}

// withDefaults fills the zero fields.
func (o ReplayOptions) withDefaults() (ReplayOptions, error) {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("workload: negative replay workers %d", o.Workers)
	}
	if o.Speed == 0 {
		o.Speed = 1
	}
	if o.Speed < 0 {
		return o, fmt.Errorf("workload: negative replay speed %g", o.Speed)
	}
	if o.QueueDepth < 0 {
		return o, fmt.Errorf("workload: negative replay queue depth %d", o.QueueDepth)
	}
	if o.ServiceJitter < 0 || o.ServiceJitter >= 1 {
		return o, fmt.Errorf("workload: service jitter %g outside [0, 1)", o.ServiceJitter)
	}
	return o, nil
}

// Replay re-enacts a recorded trace through a deterministic virtual
// queueing model: arrivals at the recorded offsets (scaled by Speed) feed
// a FIFO queue in front of Workers identical servers, each request holding
// a server for its recorded execution time. Queue waits are recomputed
// from the model; execution times, outcomes and phase breakdowns are
// carried over from the recording (failed requests occupied a worker when
// they ran, so they occupy one here). The result is a new trace — score it
// with Score — that answers capacity questions ("this traffic at 2×, on 4
// workers") without re-running a server, and is byte-for-byte reproducible.
func Replay(recs []Record, opts ReplayOptions) ([]Record, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	in := make([]Record, len(recs))
	copy(in, recs)
	sortRecords(in)

	var jitter *rand.Rand
	if opts.ServiceJitter > 0 {
		jitter = rand.New(rand.NewPCG(opts.Seed, 0x5245504c)) // "REPL"
	}

	// G/G/c FIFO recursion: each arrival starts at max(arrival, earliest
	// worker availability); admitted start times are non-decreasing, so
	// the queue length at an arrival is a binary search over them.
	avail := make([]float64, opts.Workers)
	starts := make([]float64, 0, len(in))
	out := make([]Record, 0, len(in))
	for i := range in {
		r := in[i] // copy
		t := r.ArrivalSeconds / opts.Speed
		r.ArrivalSeconds = Round6(t)
		service := r.ExecSeconds
		if jitter != nil {
			service *= 1 + opts.ServiceJitter*(2*jitter.Float64()-1)
		}
		// Recorded rejections carry no service time — they never held a
		// worker — so they pass through untouched beyond the rescaled
		// arrival.
		if r.Outcome == OutcomeRejected {
			r.QueueWaitSeconds = 0
			r.ExecSeconds = 0
			r.Seq = len(out)
			out = append(out, r)
			continue
		}
		if opts.QueueDepth > 0 {
			// Still-waiting admitted requests: starts after t.
			waiting := len(starts) - sort.SearchFloat64s(starts, t)
			if waiting >= opts.QueueDepth {
				r.Outcome = OutcomeRejected
				r.QueueWaitSeconds = 0
				r.ExecSeconds = 0
				r.PredictedSeconds = 0
				r.PlanCacheHit = false
				r.Phases = nil
				r.Seq = len(out)
				out = append(out, r)
				continue
			}
		}
		// Earliest available worker (Workers is small; linear scan).
		w := 0
		for k := 1; k < len(avail); k++ {
			if avail[k] < avail[w] {
				w = k
			}
		}
		start := t
		if avail[w] > start {
			start = avail[w]
		}
		avail[w] = start + service
		starts = append(starts, start)
		r.QueueWaitSeconds = Round6(start - t)
		r.ExecSeconds = Round6(service)
		r.Seq = len(out)
		out = append(out, r)
	}
	return out, nil
}

// ReplayScore is Replay followed by Score, stamping the replay
// configuration into the report.
func ReplayScore(recs []Record, opts ReplayOptions, spec *Spec) (*FitnessReport, error) {
	norm, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	replayed, err := Replay(recs, norm)
	if err != nil {
		return nil, err
	}
	rep := Score(replayed, spec, "replay")
	rep.Replay = &norm
	return rep, nil
}
