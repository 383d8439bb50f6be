package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// minPairs is the fewest parent/change run pairs a comparison accepts.
const minPairs = 10

// runOutput is one run's standard output as the comparison reads it: the
// "run" header line and the closing JSON result.
type runOutput struct {
	file     string
	workload string
	traced   bool
	startNS  int64
	correct  bool
	metrics  map[string]float64
}

// readRun parses one saved run output.
func readRun(path string) (*runOutput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	r := &runOutput{file: path}
	for _, line := range lines {
		rest, ok := strings.CutPrefix(line, "run ")
		if !ok {
			continue
		}
		for _, field := range strings.Fields(rest) {
			key, value, _ := strings.Cut(field, "=")
			switch key {
			case "workload":
				r.workload = value
			case "trace":
				r.traced = value == "1"
			case "start_ns":
				if r.startNS, err = strconv.ParseInt(value, 10, 64); err != nil {
					return nil, fmt.Errorf("%s: start_ns: %w", path, err)
				}
			}
		}
	}
	if r.workload == "" {
		return nil, fmt.Errorf("%s: no \"run\" header line", path)
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	r.correct = res.Correct
	r.metrics = make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		r.metrics[name] = v.Value
	}
	return r, nil
}

// readRuns reads every file of dir as a run output and groups the runs by
// workload and kind, each group in file-name order.
func readRuns(dir string) (map[string][]*runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	groups := map[string][]*runOutput{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		key := r.workload + " untraced"
		if r.traced {
			key = r.workload + " traced"
		}
		groups[key] = append(groups[key], r)
	}
	return groups, nil
}

// compareDirs applies the benchmark's acceptance rule to two directories
// of saved run outputs, one file per run: the i-th file of each directory
// (in name order, per workload) form a pair, and the pairs must alternate
// which side ran first. It prints one verdict per workload and metric and
// reports whether any metric regressed.
func compareDirs(w io.Writer, spec *Spec, parentDir, changeDir string) (bool, error) {
	parent, err := readRuns(parentDir)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changeDir)
	if err != nil {
		return false, err
	}
	keys := make([]string, 0, len(parent))
	for key := range parent {
		if _, ok := change[key]; !ok {
			return false, fmt.Errorf("%s runs exist only in %s", key, parentDir)
		}
		keys = append(keys, key)
	}
	for key := range change {
		if _, ok := parent[key]; !ok {
			return false, fmt.Errorf("%s runs exist only in %s", key, changeDir)
		}
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	regressed := false
	for _, key := range keys {
		p, c := parent[key], change[key]
		n := min(len(p), len(c))
		if n < minPairs {
			return false, fmt.Errorf("%s: %d pairs, need at least %d", key, n, minPairs)
		}
		parentFirst := 0
		for i := 0; i < n; i++ {
			if !p[i].correct || !c[i].correct {
				return false, fmt.Errorf("%s: pair %d holds a run whose output checks failed", key, i)
			}
			if p[i].startNS < c[i].startNS {
				parentFirst++
			}
		}
		if d := 2*parentFirst - n; d > 1 || d < -1 {
			return false, fmt.Errorf("%s: the parent ran first in %d of %d pairs; alternate the order", key, parentFirst, n)
		}
		for _, m := range spec.metrics(p[0].traced) {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				var ok1, ok2 bool
				pv[i], ok1 = p[i].metrics[m.Name]
				cv[i], ok2 = c[i].metrics[m.Name]
				if !ok1 || !ok2 {
					return false, fmt.Errorf("%s: pair %d lacks metric %s", key, i, m.Name)
				}
			}
			v, wins := judge(m, pv, cv)
			if v == "regressed" {
				regressed = true
			}
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
				key, m.Name, median(pv), pq1, pq3, median(cv), cq1, cq3, wins, n, v)
		}
	}
	return regressed, tw.Flush()
}

// judge gives one metric's verdict over paired runs.
//
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ, in the change's
//     favour, by more than the parent's interquartile range.
//   - unresolved: the parent's own spread (interquartile range over
//     median) is wider than the metric's bound, unless every change run
//     beats every parent run.
//   - regressed: the change's median is worse than the parent's by more
//     than the bound; a metric without a bound regresses by the mirror of
//     the improvement rule.
//   - unchanged: otherwise.
func judge(m MetricSpec, parent, change []float64) (string, int) {
	better := func(a, b float64) bool {
		if m.Better == "lower" {
			return a < b
		}
		return a > b
	}
	n := len(parent)
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	need := int(math.Ceil(0.9 * float64(n)))
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	if wins >= need && better(cm, pm) && math.Abs(cm-pm) > iqr {
		return "improved", wins
	}
	if m.Bound == nil {
		if losses >= need && better(pm, cm) && math.Abs(cm-pm) > iqr {
			return "regressed", wins
		}
		return "unchanged", wins
	}
	bound := *m.Bound
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if pm != 0 && iqr/math.Abs(pm) > bound && !allBetter {
		return "unresolved", wins
	}
	if better(pm, cm) && math.Abs(cm-pm) > bound*math.Abs(pm) {
		return "regressed", wins
	}
	return "unchanged", wins
}
