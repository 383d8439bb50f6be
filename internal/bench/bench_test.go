package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// quickCfg runs experiments on heavily scaled-down data with a dataset
// subset so the whole registry stays testable in seconds. AB-15 keeps one
// of fig16b's C = AB pairs in the subset.
func quickCfg() Config {
	return Config{
		Scale:    32,
		Datasets: []string{"harbor", "QCD", "as-caida", "youtube", "slashDot", "s1", "p4", "sp4", "AB-15"},
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Expectation == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure of the paper's evaluation must be present.
	for _, want := range []string{
		"tab1", "tab2", "tab3",
		"fig3a", "fig3b", "fig3c",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16a", "fig16b", "casestudy",
		"ablation-alpha",
	} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, err := ByID("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Every experiment must run end-to-end and produce at least one non-empty
// table.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	cfg := quickCfg()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Columns) == 0 {
					t.Fatalf("%s: table without columns", e.ID)
				}
				if tb.String() == "" {
					t.Fatalf("%s: empty render", e.ID)
				}
			}
		})
	}
}

func TestUnknownDatasetRejected(t *testing.T) {
	cfg := quickCfg()
	cfg.Datasets = []string{"nosuch"}
	if _, err := fig8().Run(cfg); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// The headline shape: on the quick subset, the Block Reorganizer's average
// speedup over the row-product baseline must exceed 1, and CUSP must trail
// the baseline.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	cfg := Config{Scale: 16, Datasets: []string{"as-caida", "slashDot", "harbor", "protein"}}
	tables, err := fig8().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := averagesRow(t, tables[0])
	reorg := colValue(t, tables[0], avg, "Block-Reorganizer")
	cusp := colValue(t, tables[0], avg, "CUSP")
	if reorg <= 1.0 {
		t.Fatalf("Block Reorganizer average %.2f not above 1.0\n%s", reorg, tables[0])
	}
	if cusp >= 1.0 {
		t.Fatalf("CUSP average %.2f not below 1.0\n%s", cusp, tables[0])
	}
}

// Figure 11's core claim on the quick subset: LBI rises monotonically-ish
// with the splitting factor on a skewed dataset.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	cfg := Config{Scale: 16, Datasets: []string{"as-caida"}}
	tables, err := fig11().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var lbiRow []string
	for _, row := range tb.Rows {
		if row[1] == "LBI" {
			lbiRow = row
			break
		}
	}
	if lbiRow == nil {
		t.Fatalf("no LBI row\n%s", tb)
	}
	first, err := strconv.ParseFloat(lbiRow[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	last, err := strconv.ParseFloat(lbiRow[len(lbiRow)-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Fatalf("LBI did not rise with splitting factor: %.2f -> %.2f\n%s", first, last, tb)
	}
}

// Figure 10's averages on a mixed subset: the full Block Reorganizer must
// match or beat every single technique, and B-Splitting alone must beat
// the baseline. Rows are not ordered one by one — on some inputs a single
// technique edges out the combination.
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	cfg := Config{Scale: 16, Datasets: []string{"as-caida", "slashDot", "harbor", "protein", "youtube", "mario002"}}
	tables, err := fig10().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	avg := averagesRow(t, tb)
	full := colValue(t, tb, avg, "Block-Reorganizer")
	for _, col := range []string{"B-Limiting", "B-Splitting", "B-Gathering"} {
		if v := colValue(t, tb, avg, col); full < v {
			t.Errorf("full average %.2f below %s average %.2f", full, col, v)
		}
	}
	if v := colValue(t, tb, avg, "B-Splitting"); v <= 1 {
		t.Errorf("B-Splitting average %.2f not above 1", v)
	}
	if t.Failed() {
		t.Log(tb)
	}
}

// The α ablation's shape on the skewed datasets of the quick subset: the
// default α=10 sits on the plateau (within 3% of the best α swept), and
// too small an α misses youtube's hubs.
func TestAblationAlphaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tables, err := ablationAlpha().Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	seen := map[string]bool{}
	for r, row := range tb.Rows {
		if row[1] != "speedup" {
			continue
		}
		name := row[0]
		seen[name] = true
		best := 0.0
		for _, col := range tb.Columns[2:] {
			best = max(best, colValue(t, tb, r, col))
		}
		def := colValue(t, tb, r, "α=10")
		if def < 0.97*best {
			t.Errorf("%s: α=10 speedup %.2f below 0.97 × best %.2f", name, def, best)
		}
		if name == "youtube" {
			if small := colValue(t, tb, r, "α=1"); small >= def {
				t.Errorf("youtube: α=1 speedup %.2f not below α=10's %.2f", small, def)
			}
		}
	}
	for _, name := range []string{"as-caida", "youtube", "slashDot"} {
		if !seen[name] {
			t.Errorf("no speedup row for %s", name)
		}
	}
	if t.Failed() {
		t.Log(tb)
	}
}

// Experiments run through one shared memo must write the same bytes as
// solo runs, and simulate each distinct run once: the shared memo's
// misses equal the union of the keys the solo runs requested.
func TestSharedMemoMatchesSoloRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	shared := quickCfg().Shared()
	requested := map[runKey]bool{}
	for _, id := range []string{"fig8", "fig9", "fig10", "fig13", "casestudy", "ablation-alpha"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		before := shared.memo.misses
		got, err := e.Run(shared)
		if err != nil {
			t.Fatalf("%s shared: %v", id, err)
		}
		if id == "fig9" && shared.memo.misses != before {
			t.Errorf("fig9 simulated %d runs; it reads fig8's grid", shared.memo.misses-before)
		}
		solo := quickCfg().Shared()
		want, err := e.Run(solo)
		if err != nil {
			t.Fatalf("%s solo: %v", id, err)
		}
		for k := range solo.memo.results {
			requested[k] = true
		}
		if g, w := csvBytes(t, got), csvBytes(t, want); !bytes.Equal(g, w) {
			t.Errorf("%s: shared run differs from solo run\nshared:\n%s\nsolo:\n%s", id, g, w)
		}
	}
	if m := shared.memo; m.misses != len(requested) || len(m.results) != len(requested) {
		t.Errorf("shared memo simulated %d runs into %d entries; %d distinct runs were requested",
			m.misses, len(m.results), len(requested))
	}
}

// Tunings that spell a default differently are one run: LimitFactor 0
// and Alpha 0 normalize to 4 and 10.
func TestMemoKeyNormalizesParams(t *testing.T) {
	cfg := quickCfg().Shared()
	spec, err := datasets.ByName("as-caida")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfg.get(cfg.square(spec),
		reorg(cfg.Device, core.Params{}),
		reorg(cfg.Device, core.Params{Alpha: core.DefaultAlpha, LimitFactor: core.DefaultLimitFactor}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.memo.misses != 1 || res[0] != res[1] {
		t.Fatalf("default and spelled-out tunings simulated %d runs; want 1 shared result", cfg.memo.misses)
	}
}

// csvBytes renders tables as their concatenated CSV exports.
func csvBytes(t *testing.T, tables []*tableio.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, tb := range tables {
		if err := tb.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// Figure 12's verdict: splitting raises the dominators' expansion L2
// throughput on average.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	cfg := Config{Scale: 16, Datasets: []string{"as-caida", "youtube", "slashDot"}}
	tables, err := fig12().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if v := colValue(t, tb, averagesRow(t, tb), "improvement"); v <= 1 {
		t.Errorf("average L2 improvement %.2fx not above 1x\n%s", v, tb)
	}
}

// Figure 13's verdict: gathering lowers the average sync-stall share of
// expansion.
func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	cfg := Config{Scale: 16, Datasets: []string{"as-caida", "slashDot", "harbor", "protein"}}
	tables, err := fig13().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	avg := averagesRow(t, tb)
	if before, after := colValue(t, tb, avg, "before"), colValue(t, tb, avg, "after"); after >= before {
		t.Errorf("average sync-stall share %.1f%% after gathering not below %.1f%% before\n%s", after, before, tb)
	}
}

// Figure 15's verdict: the Block Reorganizer beats both baselines on
// every device.
func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	cfg := Config{Scale: 16, Datasets: []string{"as-caida", "slashDot", "harbor", "protein"}}
	tables, err := fig15().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	for r, row := range tb.Rows {
		reorg := colValue(t, tb, r, "Block-Reorganizer")
		for _, base := range []string{"row-product", "outer-product"} {
			if v := colValue(t, tb, r, base); reorg <= v {
				t.Errorf("%s: Block Reorganizer %.2f not above %s %.2f", row[0], reorg, base, v)
			}
		}
	}
	if len(tb.Rows) != 3 {
		t.Errorf("%d device rows, want 3", len(tb.Rows))
	}
	if t.Failed() {
		t.Log(tb)
	}
}

// Figure 16(b)'s verdict: the Block Reorganizer's average speedup on the
// C=AB pairs is above 1. The gain grows with input size; at scale 32
// (R-MAT scales 10–13) it reads 0.94, so the check runs at scale 16.
func TestFig16bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tables, err := fig16b().Run(Config{Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if v := colValue(t, tb, averagesRow(t, tb), "Block-Reorganizer"); v <= 1 {
		t.Errorf("Block Reorganizer average %.2f not above 1\n%s", v, tb)
	}
}

// fig16b's pairs answer to the dataset filter by their AB-<scale> label:
// a name that labels no pair selects none of them, and "AB-16" selects
// exactly its own pair. Table II experiments accept the label as a known
// name that falls outside their subset.
func TestFig16bDatasetFilter(t *testing.T) {
	pairRows := func(datasets ...string) []string {
		t.Helper()
		tables, err := fig16b().Run(Config{Scale: 32, Datasets: datasets})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, row := range tables[0].Rows {
			if row[0] != "average" {
				names = append(names, row[0])
			}
		}
		return names
	}
	if got := pairRows("harbor"); len(got) != 0 {
		t.Errorf("-datasets harbor: fig16b rows %v, want none", got)
	}
	if got := pairRows("AB-16"); len(got) != 1 || got[0] != "16" {
		t.Errorf("-datasets AB-16: fig16b rows %v, want [16]", got)
	}
	if specs, err := selectedSpecs(Config{Datasets: []string{"AB-16"}}, datasets.RealWorld()); err != nil || len(specs) != 0 {
		t.Errorf("Table II subset for AB-16: %d specs, %v; want none and no error", len(specs), err)
	}
}

// The case study's verdicts: B-Splitting gains over the untransformed
// outer product, and lifts the dominators' expansion SM utilization.
func TestCaseStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	tables, err := caseStudy().Run(Config{Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	gains := tables[1]
	cell := func(technique string) string {
		for _, row := range gains.Rows {
			if row[0] == technique {
				return row[1]
			}
		}
		t.Fatalf("no %q row\n%s", technique, gains)
		return ""
	}
	split, err := strconv.ParseFloat(strings.TrimSuffix(cell("B-Splitting"), "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if split <= 0 {
		t.Errorf("B-Splitting gain %+.1f%% not above 0", split)
	}
	var before, after float64
	if _, err := fmt.Sscanf(cell("SM utilization (expansion)"), "%f%% -> %f%%", &before, &after); err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("expansion SM utilization %.0f%% -> %.0f%% does not rise", before, after)
	}
	if t.Failed() {
		t.Log(gains)
	}
}

// averagesRow locates the "average" row index.
func averagesRow(t *testing.T, tb *tableio.Table) int {
	t.Helper()
	for i, row := range tb.Rows {
		if row[0] == "average" {
			return i
		}
	}
	t.Fatalf("no average row\n%s", tb)
	return -1
}

// colValue parses the numeric cell of the named column in row r, without
// a trailing "x" or "%".
func colValue(t *testing.T, tb *tableio.Table, r int, col string) float64 {
	t.Helper()
	for c, name := range tb.Columns {
		if name == col {
			v, err := strconv.ParseFloat(strings.TrimRight(tb.Rows[r][c], "x%"), 64)
			if err != nil {
				t.Fatalf("cell %q: %v", tb.Rows[r][c], err)
			}
			return v
		}
	}
	t.Fatalf("no column %q", col)
	return 0
}
