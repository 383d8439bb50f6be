package ooc

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// fullCSR returns an n×n matrix with every entry stored — the structure
// iterative workloads converge to, and the one that keeps tile
// fingerprints stable across iterations.
func fullCSR(rng *rand.Rand, n int) *sparse.CSR {
	m := sparse.NewCSR(n, n)
	idx := make([]int, n)
	val := make([]float64, n)
	for j := 0; j < n; j++ {
		idx[j] = j
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			val[j] = rng.Float64()*2 - 1
		}
		m.AppendRow(i, idx, val)
	}
	return m
}

func testOperands(t *testing.T) (a, b, want *sparse.CSR) {
	t.Helper()
	a, err := rmat.PowerLaw(1500, 6000, 2.05, 41)
	if err != nil {
		t.Fatal(err)
	}
	b, err = rmat.Generate(1500, 6000, rmat.Default, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := blockreorg.Multiply(a, b, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, b, res.C
}

// The tentpole contract: for any budget the out-of-core product is
// bit-identical to the in-memory engine (itself bit-identical to
// sparse.Multiply), and the engine's tracked working set stays under the
// budget. The tightest budget must force a real grid with spilled tiles
// merged k-way.
func TestMultiplyBitIdenticalAcrossBudgets(t *testing.T) {
	a, b, want := testOperands(t)
	for _, tc := range []struct {
		name    string
		budget  int64
		minGrid int
	}{
		{"one-tile", 64 << 20, 1},
		{"few-tiles", 400 << 10, 2},
		{"grid-4x4", 100 << 10, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(Options{Budget: tc.budget, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			got, err := e.Multiply(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !got.Identical(want) {
				t.Fatal("out-of-core product differs bitwise from the in-memory engine")
			}
			st := e.Stats()
			if st.Grid[0] < tc.minGrid || st.Grid[1] < tc.minGrid {
				t.Fatalf("budget %d produced grid %dx%d, want at least %dx%d",
					tc.budget, st.Grid[0], st.Grid[1], tc.minGrid, tc.minGrid)
			}
			if st.PeakBytes > tc.budget {
				t.Fatalf("peak tracked bytes %d over budget %d", st.PeakBytes, tc.budget)
			}
			if st.Tiles != int64(st.Grid[0]*st.Grid[1]) {
				t.Fatalf("ran %d tiles for a %dx%d grid", st.Tiles, st.Grid[0], st.Grid[1])
			}
			if tc.minGrid > 1 && st.BytesSpilled == 0 {
				t.Fatal("gridded run spilled nothing")
			}
		})
	}
}

// Random small operands across many seeds: the bit-identity must hold for
// arbitrary structures, not just the skewed generators.
func TestMultiplyBitIdenticalRandom(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 30 + rng.IntN(60)
		a := randomCSR(rng, n, n+7, 0.15)
		b := randomCSR(rng, n+7, n+3, 0.15)
		want, err := sparse.Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Options{Budget: 16 << 10, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Multiply(a, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Identical(want) {
			t.Fatalf("seed %d: out-of-core product differs from sparse.Multiply", seed)
		}
		e.Close()
	}
}

// The per-row-panel merge holds exactly the bytes it charges: on a grid
// with several column panels every merged panel is reserved at its nnz
// and never grows past it, panels are emitted in row order as soon as
// their tiles are done, and the assembled product is reserved at the
// product's nnz. Both stay bit-identical to the in-memory engine.
func TestMergedPanelsArePreSized(t *testing.T) {
	a, b, want := testOperands(t)
	e, err := New(Options{Budget: 100 << 10, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bp, err := e.reshard(memSource{b})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.remove()
	flops, err := outEstimate(memSource{a}, memSource{b})
	if err != nil {
		t.Fatal(err)
	}
	var nnz int
	var next int64
	err = e.tiles(memSource{a}, flops, bp, func(lo, hi int64, panel *sparse.CSR) error {
		if lo != next || panel.Rows != int(hi-lo) {
			t.Errorf("panel [%d,%d) of %d rows emitted after row %d", lo, hi, panel.Rows, next)
		}
		next = hi
		if cap(panel.Idx) != panel.NNZ() || cap(panel.Val) != panel.NNZ() {
			t.Errorf("panel [%d,%d) holds %d entries in arrays of capacity %d and %d",
				lo, hi, panel.NNZ(), cap(panel.Idx), cap(panel.Val))
		}
		for r := 0; r < panel.Rows; r++ {
			gi, gv := panel.Row(r)
			wi, wv := want.Row(int(lo) + r)
			if !slices.Equal(gi, wi) || !slices.EqualFunc(gv, wv, sameBits) {
				t.Errorf("panel [%d,%d) row %d differs from the in-memory product", lo, hi, r)
			}
		}
		nnz += panel.NNZ()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := e.Stats().Grid; g[0] < 2 || g[1] < 2 {
		t.Fatalf("grid %dx%d does not merge several tiles per panel", g[0], g[1])
	}
	if nnz != want.NNZ() || next != int64(want.Rows) {
		t.Fatalf("panels hold %d entries over %d rows, want %d over %d", nnz, next, want.NNZ(), want.Rows)
	}

	got, err := e.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Identical(want) {
		t.Fatal("out-of-core product differs bitwise from the in-memory engine")
	}
	if cap(got.Idx) != got.NNZ() || cap(got.Val) != got.NNZ() {
		t.Fatalf("product holds %d entries in arrays of capacity %d and %d",
			got.NNZ(), cap(got.Idx), cap(got.Val))
	}
}

// A grid whose B fits one column panel emits each tile as its output row
// panel: nothing spills but the reshard, B is loaded once per multiply,
// and the directory holds only the reshard between calls. B takes about
// 107 KB, so the budget keeps it in one column panel while the A panels
// and tiles it leaves room for still need two row panels.
func TestOneColumnGridEmitsTiles(t *testing.T) {
	a, b, want := testOperands(t)
	rec := blockreorg.NewTrace()
	dir := t.TempDir()
	const budget = 512 << 10
	e, err := New(Options{Budget: budget, Dir: dir, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const calls = 2
	for k := 0; k < calls; k++ {
		got, err := e.Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Identical(want) {
			t.Fatalf("call %d differs bitwise from the in-memory engine", k)
		}
	}
	st := e.Stats()
	if st.Grid[0] < 2 || st.Grid[1] != 1 {
		t.Fatalf("grid %dx%d, want several row panels and one column panel", st.Grid[0], st.Grid[1])
	}
	if st.PeakBytes > budget {
		t.Fatalf("peak tracked bytes %d over budget %d", st.PeakBytes, budget)
	}
	p := rec.Profile()
	byPhase := map[string]trace.PhaseBreakdown{}
	for _, ph := range p.Phases {
		byPhase[ph.Phase] = ph
	}
	if ph, ok := byPhase[string(trace.PhaseOOCSpill)]; ok {
		t.Fatalf("one-column grid spilled %d tiles", ph.Calls)
	}
	if got := byPhase[string(trace.PhaseOOCReshard)].Items; st.BytesSpilled != got {
		t.Fatalf("spilled %d bytes, the reshard wrote %d", st.BytesSpilled, got)
	}
	// Each call loads every A row panel, which hold A's rows with one
	// pointer array per panel, and the one B panel once.
	load := byPhase[string(trace.PhaseOOCLoad)]
	if want := calls * (st.Grid[0] + 1); load.Calls != want {
		t.Fatalf("%d panel loads, want %d", load.Calls, want)
	}
	nI := int64(st.Grid[0])
	if want := calls * (csrBytes(a) + 8*(nI-1) + csrBytes(b)); load.Items != want {
		t.Fatalf("loaded %d panel bytes, want %d", load.Items, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.Contains(entries[0].Name(), "b-col-") {
		t.Fatalf("directory holds %v, want only the reshard", entries)
	}
}

// A spill that cannot be written fails the multiply and leaves nothing
// behind: no engine file in Dir, the reshard included, and no tracked
// bytes. A directory at the spill path makes the write fail for any user,
// root too.
func TestSpillFailureCleansUp(t *testing.T) {
	a, b, _ := testOperands(t)
	const budget = 100 << 10
	dir := t.TempDir()
	e, err := New(Options{Budget: budget, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	hist, err := memSource{b}.colNNZ()
	if err != nil {
		t.Fatal(err)
	}
	nJ := len(colCuts(hist, int64(b.Rows), e.shareB())) - 1
	if nJ < 2 {
		t.Fatalf("B fits %d column panel; the fault needs a spilling grid", nJ)
	}
	// The reshard takes the first nJ scratch names, tile (0, 0) the
	// next: block tile (0, 1), so one finished spill is on disk too.
	blocker := fmt.Sprintf("%06d-c-0000-0001.seg", nJ+2)
	if err := os.Mkdir(filepath.Join(dir, blocker), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Multiply(a, b); err == nil {
		t.Fatal("multiply succeeded with an unwritable spill")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != blocker {
		t.Fatalf("directory holds %v after the failure, want only %s", entries, blocker)
	}
	if cur := e.acct.Current(); cur != 0 {
		t.Fatalf("tracked bytes leaked: %d still resident", cur)
	}
}

// sameBits reports whether two values have the same IEEE 754 bits.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *sparse.CSR {
	m := sparse.NewCSR(rows, cols)
	var idx []int
	var val []float64
	for i := 0; i < rows; i++ {
		idx, val = idx[:0], val[:0]
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				idx = append(idx, j)
				val = append(val, rng.Float64()*2-1)
			}
		}
		m.AppendRow(i, idx, val)
	}
	return m
}

// The file-to-file path: both operands live in segmented containers, the
// result streams into one, and nothing but panels is ever resident. The
// assembled result must match the in-memory product bitwise, on a grid
// that spills and merges and on a one-column grid cut at stored panels
// by the budget the resident B leaves.
func TestMultiplyFilesBitIdentical(t *testing.T) {
	a, b, want := testOperands(t)
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.seg")
	bPath := filepath.Join(dir, "b.seg")
	// Stored panels bound the grid planner's cut granularity (a file cut
	// must land on a stored panel boundary), so keep them fine relative
	// to the budget's panel share.
	if err := sparse.WriteSegmentedFile(aPath, a, 32); err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteSegmentedFile(bPath, b, 32); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget int64
		wide   bool // B splits into two or more column panels
	}{{"grid", 200 << 10, true}, {"one-column", 512 << 10, false}} {
		t.Run(tc.name, func(t *testing.T) {
			outPath := filepath.Join(t.TempDir(), "c.seg")
			e, err := New(Options{Budget: tc.budget, Dir: filepath.Join(t.TempDir(), "scratch")})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.MultiplyFiles(aPath, bPath, outPath); err != nil {
				t.Fatal(err)
			}
			got, err := sparse.ReadSegmentedFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Identical(want) {
				t.Fatal("file-to-file product differs bitwise from the in-memory engine")
			}
			st := e.Stats()
			if st.Grid[0] < 2 || (st.Grid[1] >= 2) != tc.wide {
				t.Fatalf("grid %dx%d, want a real tiling with wide=%v", st.Grid[0], st.Grid[1], tc.wide)
			}
			if st.PeakBytes > tc.budget {
				t.Fatalf("peak tracked bytes %d over budget %d", st.PeakBytes, tc.budget)
			}
		})
	}
}

// Iterating M ← M·B with a fixed B must pay reshard and tile planning
// once: every later iteration rebinds the cached plans (one hit per tile)
// and reuses the on-disk reshard.
func TestPlanAndReshardReuseAcrossIterations(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	m := fullCSR(rng, 48)
	b := fullCSR(rng, 48)
	e, err := New(Options{Budget: 48 << 10, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const iters = 4
	for k := 0; k < iters; k++ {
		want, err := blockreorg.Multiply(m, b, blockreorg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Multiply(m, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Identical(want.C) {
			t.Fatalf("iteration %d differs from the in-memory engine", k)
		}
		m = got
	}
	st := e.Stats()
	tilesPerIter := int64(st.Grid[0] * st.Grid[1])
	if tilesPerIter < 4 {
		t.Fatalf("grid %dx%d too small to exercise reuse", st.Grid[0], st.Grid[1])
	}
	// Misses happen only on the first iteration, and only once per
	// distinct tile structure (structurally identical tiles share a plan
	// immediately); everything else rebinds a cached plan.
	if st.PlanMisses == 0 || st.PlanMisses > tilesPerIter {
		t.Fatalf("plan misses %d for %d tiles per iteration", st.PlanMisses, tilesPerIter)
	}
	if want := tilesPerIter * (iters - 1); st.PlanHits < want {
		t.Fatalf("plan hits %d, want at least %d", st.PlanHits, want)
	}
	if st.PlanHits+st.PlanMisses != st.Tiles {
		t.Fatalf("hits %d + misses %d != tiles %d", st.PlanHits, st.PlanMisses, st.Tiles)
	}
	if st.ReshardReuses != iters-1 {
		t.Fatalf("reshard reuses %d, want %d", st.ReshardReuses, iters-1)
	}
}

// The engine's trace output: ooc phases appear as spans, the counters add
// up against Stats, and the gauges publish budget and peak. The budget
// splits B into several column panels, so tiles spill and merge.
func TestTraceCountersAndGauges(t *testing.T) {
	a, b, _ := testOperands(t)
	rec := blockreorg.NewTrace()
	const budget = 100 << 10
	e, err := New(Options{Budget: budget, Dir: t.TempDir(), Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Multiply(a, b); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	p := rec.Profile()
	if p.Counter(trace.CounterOOCTiles) != st.Tiles {
		t.Fatalf("tile counter %d, stats %d", p.Counter(trace.CounterOOCTiles), st.Tiles)
	}
	if p.Counter(trace.CounterOOCBytesLoaded) != st.BytesLoaded ||
		p.Counter(trace.CounterOOCBytesSpill) != st.BytesSpilled {
		t.Fatal("byte counters disagree with stats")
	}
	if p.Counter(trace.CounterOOCPlanMisses) != st.PlanMisses {
		t.Fatal("plan miss counter disagrees with stats")
	}
	if st.Grid[1] < 2 {
		t.Fatalf("grid %dx%d has one column panel; nothing spills", st.Grid[0], st.Grid[1])
	}
	if p.Gauges[trace.GaugeOOCBudget] != float64(budget) {
		t.Fatalf("budget gauge %v", p.Gauges[trace.GaugeOOCBudget])
	}
	if p.Gauges[trace.GaugeOOCPeakBytes] != float64(st.PeakBytes) {
		t.Fatalf("peak gauge %v, stats %d", p.Gauges[trace.GaugeOOCPeakBytes], st.PeakBytes)
	}
	phases := map[string]bool{}
	for _, s := range p.Phases {
		phases[s.Phase] = true
	}
	for _, ph := range []trace.Phase{trace.PhaseOOCLoad, trace.PhaseOOCReshard,
		trace.PhaseOOCMultiply, trace.PhaseOOCSpill, trace.PhaseOOCMerge} {
		if !phases[string(ph)] {
			t.Fatalf("phase %s missing from profile", ph)
		}
	}
}

func TestEngineRejectsBadRequests(t *testing.T) {
	if _, err := New(Options{Budget: 0}); err == nil {
		t.Fatal("zero budget accepted")
	}
	e, err := New(Options{Budget: 1 << 20, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Multiply(nil, sparse.NewCSR(2, 2)); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("nil operand: %v", err)
	}
	if _, err := e.Multiply(sparse.NewCSR(2, 3), sparse.NewCSR(2, 3)); !errors.Is(err, blockreorg.ErrDimensionMismatch) {
		t.Fatalf("dimension mismatch: %v", err)
	}
	if err := e.MultiplyFiles(filepath.Join(t.TempDir(), "missing.seg"), "x", "y"); err == nil {
		t.Fatal("missing operand file accepted")
	}
}

func TestDegenerateOperands(t *testing.T) {
	e, err := New(Options{Budget: 1 << 20, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got, err := e.Multiply(sparse.NewCSR(5, 4), sparse.NewCSR(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 5 || got.Cols != 3 || got.NNZ() != 0 {
		t.Fatalf("empty product wrong: %dx%d nnz %d", got.Rows, got.Cols, got.NNZ())
	}
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.seg")
	bPath := filepath.Join(dir, "b.seg")
	outPath := filepath.Join(dir, "c.seg")
	if err := sparse.WriteSegmentedFile(aPath, sparse.NewCSR(5, 4), 0); err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteSegmentedFile(bPath, sparse.NewCSR(4, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.MultiplyFiles(aPath, bPath, outPath); err != nil {
		t.Fatal(err)
	}
	out, err := sparse.ReadSegmentedFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != 5 || out.Cols != 3 || out.NNZ() != 0 {
		t.Fatal("empty file product wrong")
	}
}

// The accountant is the budget's book-keeper: balanced grabs and a peak
// that never understates the concurrent maximum.
func TestAccountant(t *testing.T) {
	var a Accountant
	a.Grab(100)
	a.Grab(50)
	if a.Current() != 150 || a.Peak() != 150 {
		t.Fatalf("current %d peak %d", a.Current(), a.Peak())
	}
	a.Release(100)
	a.Grab(20)
	if a.Current() != 70 || a.Peak() != 150 {
		t.Fatalf("current %d peak %d after release", a.Current(), a.Peak())
	}
}

// After every successful multiplication the accountant must be back to
// zero — anything else is a leak in the engine's grab/release pairing.
func TestAccountingBalanced(t *testing.T) {
	a, b, _ := testOperands(t)
	e, err := New(Options{Budget: 300 << 10, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Multiply(a, b); err != nil {
		t.Fatal(err)
	}
	if cur := e.acct.Current(); cur != 0 {
		t.Fatalf("tracked bytes leaked: %d still resident", cur)
	}
}

// The one-column cut: an A row panel plus its estimated tile fits in the
// budget the resident B leaves, unless the panel is one row (or one
// stored panel of a file) that does not fit alone, and every cut is
// maximal: the panel with the next row or stored panel added would not
// fit. Both sources cut by the same rule at their own granularity.
func TestOneColumnCuts(t *testing.T) {
	a, b, _ := testOperands(t)
	flops, err := outEstimate(memSource{a}, memSource{b})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.seg")
	if err := sparse.WriteSegmentedFile(path, a, 32); err != nil {
		t.Fatal(err)
	}
	seg, err := sparse.OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	rowEnds := make([]int64, a.Rows)
	for i := range rowEnds {
		rowEnds[i] = int64(i + 1)
	}
	var panelEnds []int64
	for _, p := range seg.Panels() {
		panelEnds = append(panelEnds, p.End)
	}
	// bytes is what the cut charges rows [lo, hi): the A panel plus the
	// tile its flop count bounds.
	bytes := func(lo, hi int64) int64 {
		var nnz, w int64
		for i := lo; i < hi; i++ {
			nnz += int64(a.RowNNZ(int(i)))
			w += flops[i]
		}
		return csrBytesFor(hi-lo, nnz) + csrBytesFor(hi-lo, w)
	}
	bBytes := csrBytes(b)
	for _, budget := range []int64{300 << 10, 512 << 10, 768 << 10} {
		e, err := New(Options{Budget: budget, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		limit := budget - bBytes
		for _, src := range []struct {
			name string
			s    source
			ends []int64 // the cut candidates: every end of a row or stored panel
		}{{"mem", memSource{a}, rowEnds}, {"file", fileSource{seg}, panelEnds}} {
			cuts := src.s.rowCuts(flops, e.oneColumnFits(bBytes))
			if len(cuts) < 3 || cuts[0] != 0 || cuts[len(cuts)-1] != int64(a.Rows) {
				t.Fatalf("%s, budget %d: cuts %v, want several panels over [0,%d)", src.name, budget, cuts, a.Rows)
			}
			for I := 0; I+1 < len(cuts); I++ {
				lo, hi := cuts[I], cuts[I+1]
				k, ok := slices.BinarySearch(src.ends, hi)
				if !ok || src.ends[k] <= lo {
					t.Fatalf("%s, budget %d: cut %d is not a boundary after %d", src.name, budget, hi, lo)
				}
				lone := k == 0 || src.ends[k-1] <= lo
				if n := bytes(lo, hi); n > limit && !lone {
					t.Fatalf("%s, budget %d: panel [%d,%d) charges %d over the limit %d",
						src.name, budget, lo, hi, n, limit)
				}
				if k+1 < len(src.ends) && bytes(lo, src.ends[k+1]) <= limit {
					t.Fatalf("%s, budget %d: panel [%d,%d) could extend to %d within the limit %d",
						src.name, budget, lo, hi, src.ends[k+1], limit)
				}
			}
		}
	}
}

// A B heavier than the whole budget that still forms one column panel
// leaves no room for A: every row is a panel of its own, and the multiply
// still succeeds, bit-identical to the in-memory product.
func TestOneColumnHeavyB(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	a := randomCSR(rng, 40, 300, 0.1)
	b := randomCSR(rng, 300, 1, 0.9)
	const budget = 4 << 10
	if csrBytes(b) <= budget {
		t.Fatalf("B takes %d bytes, want more than the budget %d", csrBytes(b), budget)
	}
	want, err := sparse.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Budget: budget, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got, err := e.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Identical(want) {
		t.Fatal("out-of-core product differs bitwise from sparse.Multiply")
	}
	if g := e.Stats().Grid; g != [2]int{a.Rows, 1} {
		t.Fatalf("grid %dx%d, want one row per panel: %dx1", g[0], g[1], a.Rows)
	}
}

func TestColCuts(t *testing.T) {
	// 4 columns of 10 entries each, 3 rows: base = 8*4 = 32 bytes, each
	// column adds 160 bytes. share 200 → one column per panel.
	cuts := colCuts([]int64{10, 10, 10, 10}, 3, 200)
	if len(cuts) != 5 {
		t.Fatalf("cuts %v, want one column per panel", cuts)
	}
	// A huge share keeps everything in one panel.
	cuts = colCuts([]int64{10, 10, 10, 10}, 3, 1<<20)
	if len(cuts) != 2 || cuts[1] != 4 {
		t.Fatalf("cuts %v, want a single panel", cuts)
	}
	// A single column over the share still gets a panel of its own.
	cuts = colCuts([]int64{1000, 1, 1}, 3, 100)
	if cuts[1] != 1 {
		t.Fatalf("cuts %v, want the heavy column isolated", cuts)
	}
}

// A budget whose column share cannot hold B's row pointers would give
// each of B's columns a panel of its own — on these operands at 16 KiB a
// 166×1500 grid with 1,500 writers open at once. Both entry points refuse
// it up front: a classified error that names the smallest workable budget,
// returned at once, with nothing written to the engine's directory.
func TestBudgetBelowPointerArrayRefused(t *testing.T) {
	a, err := rmat.PowerLaw(1500, 6000, 2.05, 41)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rmat.Generate(1500, 6000, rmat.Default, 42)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := memSource{b}.colNNZ()
	if err != nil {
		t.Fatal(err)
	}
	const budget = 16 << 10
	minBudget := 4 * (csrBytesFor(int64(b.Rows), 0) + 16*slices.Max(hist))
	if csrBytesFor(int64(b.Rows), 0) <= budget/4 {
		t.Fatalf("B's pointer array fits the %d-byte column share", budget/4)
	}
	operands := t.TempDir()
	aPath := filepath.Join(operands, "a.seg")
	bPath := filepath.Join(operands, "b.seg")
	outPath := filepath.Join(operands, "c.seg")
	if err := sparse.WriteSegmentedFile(aPath, a, 32); err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteSegmentedFile(bPath, b, 32); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(e *Engine) error
	}{
		{"Multiply", func(e *Engine) error { _, err := e.Multiply(a, b); return err }},
		{"MultiplyFiles", func(e *Engine) error { return e.MultiplyFiles(aPath, bPath, outPath) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := New(Options{Budget: budget, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			t0 := time.Now()
			err = tc.run(e)
			if d := time.Since(t0); d > time.Second {
				t.Fatalf("refusal took %v", d)
			}
			if !errors.Is(err, blockreorg.ErrInvalidOptions) {
				t.Fatalf("err %v, want ErrInvalidOptions", err)
			}
			if want := fmt.Sprintf("smallest workable budget is %d bytes", minBudget); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the budget: want %q", err, want)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Fatalf("engine directory holds %d entries (err %v), want none", len(ents), err)
			}
			if _, err := os.Stat(outPath); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused run left an output file: %v", err)
			}
		})
	}
}
