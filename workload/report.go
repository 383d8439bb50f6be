package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// FitnessReport is the scored outcome of a trace: per-class latency
// breakdowns, SLO verdicts, an overall fitness in [0, 1], and — when the
// trace carries predictions — the simulator calibration. Every float is
// rounded (see Round6), so identical inputs render byte-identically; the
// JSON field set is a stable schema pinned by a golden-file test and the
// ci.sh smoke gate.
type FitnessReport struct {
	// Spec names the workload spec that scored the trace ("" without one).
	Spec string `json:"spec,omitempty"`
	// Source is how the records were obtained: "trace" (as recorded),
	// "replay" (virtual re-enactment) or "live" (a fresh load run).
	Source string `json:"source"`
	// Requests counts the trace's records; DurationSeconds the arrival
	// window (first to last arrival offset).
	Requests        int     `json:"requests"`
	DurationSeconds float64 `json:"duration_s"`
	// Replay echoes the virtual replay configuration when Source is
	// "replay".
	Replay *ReplayOptions `json:"replay,omitempty"`
	// Classes holds one report per class, sorted by name.
	Classes []ClassReport `json:"classes"`
	// PlanHitRate is the share of completed requests across all classes
	// that reused a cached plan — the headline figure for comparing
	// cluster routing policies on identical traffic (docs/EXPERIMENTS.md).
	PlanHitRate float64 `json:"plan_hit_rate"`
	// Fitness is the weighted mean of per-class SLO scores.
	Fitness float64 `json:"fitness"`
	// Calibration compares gpusim predictions against host measurements;
	// nil when no record carries a prediction.
	Calibration *Calibration `json:"calibration,omitempty"`
}

// WriteJSON renders the report with stable key order and indentation.
func (r *FitnessReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a rendered report.
func ReadReport(data []byte) (*FitnessReport, error) {
	var r FitnessReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("workload: parsing report: %w", err)
	}
	return &r, nil
}

// SchemaPaths returns the sorted set of JSON key paths present in a
// rendered report — arrays contribute their element keys under "[]". The
// committed golden (workload/testdata/fitness_schema.json) pins this set,
// and `spgemmload check` diffs a produced report against it, so a schema
// drift fails CI with the exact added/removed paths.
func SchemaPaths(reportJSON []byte) ([]string, error) {
	var v any
	if err := json.Unmarshal(reportJSON, &v); err != nil {
		return nil, fmt.Errorf("workload: parsing report: %w", err)
	}
	set := make(map[string]bool)
	collectPaths("", v, set)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

func collectPaths(prefix string, v any, set map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			set[p] = true
			collectPaths(p, child, set)
		}
	case []any:
		for _, child := range t {
			collectPaths(prefix+"[]", child, set)
		}
	}
}

// CheckSchema verifies that every key path in reportJSON appears in the
// allowed set (the committed schema golden) — reports may omit optional
// paths, but may not invent new ones.
func CheckSchema(reportJSON []byte, allowed []string) error {
	paths, err := SchemaPaths(reportJSON)
	if err != nil {
		return err
	}
	ok := make(map[string]bool, len(allowed))
	for _, p := range allowed {
		ok[p] = true
	}
	var extra []string
	for _, p := range paths {
		if !ok[p] {
			extra = append(extra, p)
		}
	}
	if len(extra) > 0 {
		return fmt.Errorf("workload: report carries paths outside the schema golden: %v", extra)
	}
	return nil
}
