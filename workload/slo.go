package workload

import (
	"math"
	"sort"
)

// Round6 rounds to microsecond-scale precision. Every float in a report
// and every time in a trace record passes through it, so re-rendering the
// same inputs is byte-identical — the property the scoring determinism
// gate pins.
func Round6(v float64) float64 {
	r := math.Round(v*1e6) / 1e6
	if r == 0 {
		return 0 // normalize -0
	}
	return r
}

// sortRecords orders a trace by arrival offset, ties by Seq.
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].ArrivalSeconds != recs[j].ArrivalSeconds {
			return recs[i].ArrivalSeconds < recs[j].ArrivalSeconds
		}
		return recs[i].Seq < recs[j].Seq
	})
}

// Quantiles summarizes one latency component across a class's completed
// requests (seconds, rounded).
type Quantiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// quantilesOf computes nearest-rank quantiles of vs (need not be sorted).
func quantilesOf(vs []float64) Quantiles {
	if len(vs) == 0 {
		return Quantiles{}
	}
	s := make([]float64, len(vs))
	copy(s, vs)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Quantiles{
		P50:  Round6(rank(0.50)),
		P95:  Round6(rank(0.95)),
		P99:  Round6(rank(0.99)),
		Max:  Round6(s[len(s)-1]),
		Mean: Round6(sum / float64(len(s))),
	}
}

// SLOReport scores one class against its targets. Each present target
// contributes a component in [0, 1] — min(1, target/observed) for latency
// quantiles, and an analogous ratio for the error budget — and the class
// score is the worst component: an SLO is only as healthy as its most
// violated target.
type SLOReport struct {
	Targets SLOSpec `json:"targets"`
	// Met reports whether every present target held.
	Met bool `json:"met"`
	// Violations lists the broken targets ("p95", "error_rate", ...).
	Violations []string `json:"violations,omitempty"`
	// Score is the class's fitness component in [0, 1].
	Score float64 `json:"score"`
}

// ClassReport is the per-class slice of a fitness report.
type ClassReport struct {
	Class     string `json:"class"`
	Count     int    `json:"count"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Rejected  int    `json:"rejected"`
	// ErrorRate is (failed + rejected) / count.
	ErrorRate float64 `json:"error_rate"`
	// PlanHitRate is the share of completed requests that reused a plan.
	PlanHitRate float64 `json:"plan_hit_rate"`
	// Latency breakdowns over completed requests: end-to-end, its
	// queue-wait and execute components, and the execute time not
	// attributed to any instrumented phase.
	Latency   Quantiles `json:"latency"`
	QueueWait Quantiles `json:"queue_wait"`
	Execute   Quantiles `json:"execute"`
	Other     Quantiles `json:"other"`
	// SLO is present when the spec declares targets for the class.
	SLO *SLOReport `json:"slo,omitempty"`
	// Weight is the class's share of the overall fitness (default 1).
	Weight float64 `json:"weight"`
}

// otherSeconds is the execute time a record's instrumented phases do not
// account for: exec − Σ phases (the profile's own "other" remainder counts
// toward it, since it is unattributed by definition).
func otherSeconds(r *Record) float64 {
	if len(r.Phases) == 0 {
		return 0
	}
	var accounted float64
	for name, s := range r.Phases {
		if name == "other" {
			continue
		}
		accounted += s
	}
	if rest := r.ExecSeconds - accounted; rest > 0 {
		return rest
	}
	return 0
}

// scoreClass builds the class's SLO report from its observed quantiles.
func scoreClass(slo SLOSpec, latency Quantiles, errorRate float64) *SLOReport {
	if slo.empty() {
		return nil
	}
	rep := &SLOReport{Targets: slo, Met: true, Score: 1}
	component := func(name string, target, observed float64) {
		if target <= 0 {
			return
		}
		score := 1.0
		if observed > target {
			rep.Met = false
			rep.Violations = append(rep.Violations, name)
			score = target / observed
		}
		if score < rep.Score {
			rep.Score = score
		}
	}
	component("p50", slo.P50Millis/1e3, latency.P50)
	component("p95", slo.P95Millis/1e3, latency.P95)
	component("p99", slo.P99Millis/1e3, latency.P99)
	if slo.MaxErrorRate > 0 || errorRate > 0 {
		// The error budget: within budget scores 1; over budget scores
		// budget/actual (a zero budget makes any error fatal).
		if errorRate > slo.MaxErrorRate {
			rep.Met = false
			rep.Violations = append(rep.Violations, "error_rate")
			score := 0.0
			if errorRate > 0 && slo.MaxErrorRate > 0 {
				score = slo.MaxErrorRate / errorRate
			}
			if score < rep.Score {
				rep.Score = score
			}
		}
	}
	rep.Score = Round6(rep.Score)
	return rep
}

// buildClassReport folds one class's records.
func buildClassReport(class string, recs []*Record, spec *ClassSpec) ClassReport {
	rep := ClassReport{Class: class, Count: len(recs), Weight: 1}
	var latency, queue, exec, other []float64
	hits := 0
	for _, r := range recs {
		switch {
		case r.Outcome == OutcomeDone:
			rep.Completed++
			latency = append(latency, r.Latency())
			queue = append(queue, r.QueueWaitSeconds)
			exec = append(exec, r.ExecSeconds)
			other = append(other, otherSeconds(r))
			if r.PlanCacheHit {
				hits++
			}
		case r.Outcome == OutcomeRejected:
			rep.Rejected++
		default:
			rep.Failed++
		}
	}
	if rep.Count > 0 {
		rep.ErrorRate = Round6(float64(rep.Failed+rep.Rejected) / float64(rep.Count))
	}
	if rep.Completed > 0 {
		rep.PlanHitRate = Round6(float64(hits) / float64(rep.Completed))
	}
	rep.Latency = quantilesOf(latency)
	rep.QueueWait = quantilesOf(queue)
	rep.Execute = quantilesOf(exec)
	rep.Other = quantilesOf(other)
	if spec != nil {
		if spec.Weight > 0 {
			rep.Weight = spec.Weight
		}
		rep.SLO = scoreClass(spec.SLO, rep.Latency, rep.ErrorRate)
	}
	return rep
}

// Score folds a trace into its fitness report. spec may be nil (classes
// report their statistics but carry no SLO verdicts and weight 1); classes
// present in the trace but absent from the spec are scored the same way.
func Score(recs []Record, spec *Spec, source string) *FitnessReport {
	byClass := make(map[string][]*Record)
	var names []string
	var maxArrival float64
	for i := range recs {
		r := &recs[i]
		name := r.Class
		if name == "" {
			name = "(unclassed)"
		}
		if _, ok := byClass[name]; !ok {
			names = append(names, name)
		}
		byClass[name] = append(byClass[name], r)
		if r.ArrivalSeconds > maxArrival {
			maxArrival = r.ArrivalSeconds
		}
	}
	sort.Strings(names)

	rep := &FitnessReport{
		Source:          source,
		Requests:        len(recs),
		DurationSeconds: Round6(maxArrival),
	}
	if spec != nil {
		rep.Spec = spec.Name
	}
	var weighted, weights float64
	completed, planHits := 0, 0
	for _, name := range names {
		cs := spec.Class(name)
		cr := buildClassReport(name, byClass[name], cs)
		rep.Classes = append(rep.Classes, cr)
		for _, r := range byClass[name] {
			if r.Outcome == OutcomeDone {
				completed++
				if r.PlanCacheHit {
					planHits++
				}
			}
		}
		score := 1.0
		if cr.SLO != nil {
			score = cr.SLO.Score
		} else if cr.Count > 0 {
			score = 1 - cr.ErrorRate
		}
		weighted += cr.Weight * score
		weights += cr.Weight
	}
	if weights > 0 {
		rep.Fitness = Round6(weighted / weights)
	}
	if completed > 0 {
		rep.PlanHitRate = Round6(float64(planHits) / float64(completed))
	}
	return rep
}
