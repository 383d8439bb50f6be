package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Spec is the benchmark definition committed as BENCHMARK.json at the
// repository root: the workloads, and every metric with its unit, its
// direction and, for end-to-end metrics, the share of the parent's median
// by which it may worsen before a change counts as a regression. The
// benchmark reads it so that the metric set it emits and the set the
// definition names can never drift apart.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []WorkloadID `json:"workloads"`
	EndToEnd   []MetricSpec `json:"end_to_end"`
	PerLayer   []MetricSpec `json:"per_layer"`
}

// WorkloadID names a workload and records why the benchmark runs it.
type WorkloadID struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec declares one metric. Bound is set only for end-to-end
// metrics.
type MetricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads and checks the benchmark definition.
func loadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]MetricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if seen[m.Name] {
			return nil, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %q: better must be \"lower\" or \"higher\"", path, m.Name)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %q has no bound", path, m.Name)
		}
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("%s: workload %q is not implemented", path, w.Name)
		}
	}
	return &s, nil
}

// metrics returns the metric list a run emits: the end-to-end metrics for
// an untraced run, the per-layer metrics for a traced one.
func (s *Spec) metrics(traced bool) []MetricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric looks a metric up by name in either list.
func (s *Spec) metric(name string) (MetricSpec, bool) {
	for _, m := range append(append([]MetricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSpec{}, false
}

// checkEmitted reports a metric the definition names that the run did not
// measure, or one the run measured that the definition does not name.
func (s *Spec) checkEmitted(traced bool, got map[string]float64) error {
	want := map[string]bool{}
	for _, m := range s.metrics(traced) {
		want[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			return fmt.Errorf("metric %q was not measured", m.Name)
		}
	}
	var extra []string
	for name := range got {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics %v are not named in the benchmark definition", extra)
	}
	return nil
}
