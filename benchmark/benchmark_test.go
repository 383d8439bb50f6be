package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/workload"
)

// tinySizes shrinks every workload so that each run takes about a second
// while going through the same code path as the measured sizes. The serve
// traffic keeps the committed specs' arrival processes and mixes, over
// smaller matrices.
func tinySizes(t *testing.T) Sizes {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "workloads"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve-repeat", "serve-churn"} {
		spec, err := workload.LoadSpec(filepath.Join("workloads", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range spec.Classes {
			c := &spec.Classes[i]
			c.Matrix.N, c.Matrix.NNZ = 128, 512
			c.StructurePool = min(max(c.StructurePool, 1), 2)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "workloads", name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return Sizes{
		GridScale:    512,
		GridDatasets: []string{"harbor", "as-caida"},
		Dir:          dir,
		CheckSamples: 2,
		GraphNodes:   256,
		GraphEdges:   1024,
		PowerK:       3,
		OOCBudget:    128 << 10,
	}
}

func loadTestSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json untraced and
// traced at tiny sizes and checks that each emits exactly the metrics the
// definition names, with their units, that every output check passes, and
// that no operation failed.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%t", w.Name, traced), func(t *testing.T) {
				cfg := Config{
					Workload: w.Name,
					Seed:     7,
					Seconds:  0.4,
					Traced:   traced,
					WorkDir:  t.TempDir(),
					Setups:   2,
					Sizes:    tinySizes(t),
				}
				if traced {
					cfg.TraceOut = filepath.Join(t.TempDir(), "spans.json")
				}
				var out bytes.Buffer
				res, err := Run(cfg, spec, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct {
					t.Fatalf("output checks failed:\n%s", out.String())
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d; want no failures", res.Attempted, res.Failed)
				}
				line, err := res.JSON(spec)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Metrics map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatal(err)
				}
				want := spec.metrics(traced)
				if len(parsed.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, the definition names %d", len(parsed.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := parsed.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", m.Name, got.Value)
					}
				}
				if traced {
					data, err := os.ReadFile(cfg.TraceOut)
					if err != nil {
						t.Fatal(err)
					}
					var spans []span
					if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
						t.Fatalf("span file holds no spans (err %v)", err)
					}
					for _, s := range spans {
						if s.EndNS < s.StartNS {
							t.Fatalf("span %+v ends before it starts", s)
						}
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	bound := 0.1
	lower := MetricSpec{Name: "op_cpu_ms", Better: "lower", Bound: &bound}
	series := func(base float64, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"clear gain", series(100, 1), series(80, 1), "improved"},
		{"same", series(100, 1), series(100, 1), "unchanged"},
		{"small loss within bound", series(100, 1), series(104, 1), "unchanged"},
		{"loss beyond bound", series(100, 1), series(120, 1), "regressed"},
		{"spread wider than bound", series(100, 10), series(101, 10), "unresolved"},
	} {
		if got, _ := judge(lower, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareDirs drives -compare over saved run outputs.
func TestCompareDirs(t *testing.T) {
	spec := loadTestSpec(t)
	parentDir, changeDir := t.TempDir(), t.TempDir()
	write := func(dir string, i int, start int64, value float64) {
		metrics := map[string]map[string]any{}
		for _, m := range spec.EndToEnd {
			metrics[m.Name] = map[string]any{"value": 10.0 + float64(i%3)*0.01, "unit": m.Unit}
		}
		metrics["op_cpu_ms"]["value"] = value
		res, err := json.Marshal(map[string]any{"correct": true, "attempted": 1, "failed": 0, "metrics": metrics})
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("run workload=grid-multiply seed=%d seconds=20 trace=0 start_ns=%d\n%s\n", i, start, res)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%02d.txt", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < minPairs; i++ {
		// Alternate which side runs first.
		p, c := int64(2*i), int64(2*i+1)
		if i%2 == 1 {
			p, c = c, p
		}
		write(parentDir, i, p, 20+0.1*float64(i%3))
		write(changeDir, i, c, 15+0.1*float64(i%3))
	}
	var out bytes.Buffer
	regressed, err := compareDirs(&out, spec, parentDir, changeDir)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("no metric got worse, yet the comparison reports a regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "op_cpu_ms") || !strings.Contains(out.String(), "improved") {
		t.Fatalf("op_cpu_ms should read improved:\n%s", out.String())
	}

	// Swapped sides turn the gain into a regression.
	out.Reset()
	if regressed, err = compareDirs(&out, spec, changeDir, parentDir); err != nil || !regressed {
		t.Fatalf("swapped comparison: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}

// TestRunRejectsBadInvocations checks the command-line exit codes.
func TestRunRejectsBadInvocations(t *testing.T) {
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, args := range [][]string{
		{"-spec", spec, "-workload", "no-such-workload"},
		{"-spec", spec, "-workload", "analytics", "-trace", "2"},
		{"-spec", filepath.Join(t.TempDir(), "missing.json"), "-workload", "analytics"},
		{"-spec", spec, "-compare", t.TempDir()},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if stdout.Len() != 0 && strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("run(%q) printed a result", args)
		}
	}
}
