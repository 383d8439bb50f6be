package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/sparse"
)

func TestPowerIterateMatchesRepeatedMultiply(t *testing.T) {
	a := randomCSR(testRNG(3), 40, 40, 0.15)
	const k = 4
	res, err := PowerIterate(context.Background(), a, k, PowerOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != k-1 {
		t.Fatalf("A^%d took %d iterations, want %d", k, res.Iterations, k-1)
	}
	want := a
	for i := 1; i < k; i++ {
		var err error
		want, err = sparse.Multiply(want, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if !resultsClose(res.M, want, 1e-9) {
		t.Fatal("PowerIterate result diverges from repeated sparse.Multiply")
	}
}

// resultsClose compares two matrices entrywise with a tolerance relative
// to the larger magnitude, over the union of both patterns.
func resultsClose(a, b *sparse.CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	d := maxAbsDiff(a, b)
	scale := 1.0
	if f := a.FrobeniusNorm(); f > scale {
		scale = f
	}
	return d <= tol*scale
}

func TestPowerIteratePlanHitsForFixedStructure(t *testing.T) {
	// A structurally full matrix keeps its pattern under squaring, so every
	// iteration after the first multiplies operands whose structures the
	// cache has seen: k iterations must report at least k−1 plan hits (the
	// acceptance bound), and for this input exactly k−1.
	a := randomCSR(testRNG(4), 24, 24, 1.0)
	if a.NNZ() != 24*24 {
		t.Fatal("test wants a structurally full matrix")
	}
	const k = 6
	rec := blockreorg.NewTrace()
	res, err := PowerIterate(context.Background(), a, k, PowerOptions{}, Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	iters := res.Iterations
	if iters != k-1 {
		t.Fatalf("got %d iterations, want %d", iters, k-1)
	}
	if res.PlanHits < iters-1 {
		t.Fatalf("got %d plan hits over %d iterations, want >= %d", res.PlanHits, iters, iters-1)
	}
	if res.PlanHits != iters-1 || res.PlanMisses != 1 {
		t.Fatalf("got %d hits / %d misses, want %d / 1", res.PlanHits, res.PlanMisses, iters-1)
	}
	if got := rec.Profile().Counter("pipeline_plan_hits"); got != int64(res.PlanHits) {
		t.Fatalf("trace counter reports %d hits, result %d", got, res.PlanHits)
	}
	for i, it := range res.Iters {
		if wantHit := i > 0; it.PlanHit != wantHit {
			t.Fatalf("iteration %d plan_hit=%v, want %v", it.Iteration, it.PlanHit, wantHit)
		}
	}
}

func TestPowerIterateOutOfCorePlanHits(t *testing.T) {
	// Out-of-core power iteration with a structurally full iterate: the
	// tile grid is identical every iteration, so after the first pass
	// every tile rebinds a cached plan. k iterations must report at
	// least k−1 tile-plan hits (in fact one hit per tile per later
	// iteration), and the result must be bit-identical to the in-memory
	// run — same engine, different tiling.
	a := randomCSR(testRNG(4), 24, 24, 1.0)
	const k = 5
	want, err := PowerIterate(context.Background(), a, k, PowerOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := blockreorg.NewTrace()
	res, err := PowerIterate(context.Background(), a, k, PowerOptions{},
		Options{MemBudget: 24 << 10, SpillDir: t.TempDir(), Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != k-1 {
		t.Fatalf("got %d iterations, want %d", res.Iterations, k-1)
	}
	if !res.M.Equal(want.M, 0) {
		t.Fatal("out-of-core power differs bitwise from the in-memory run")
	}
	if res.PlanHits < res.Iterations-1 {
		t.Fatalf("got %d tile-plan hits over %d iterations, want >= %d",
			res.PlanHits, res.Iterations, res.Iterations-1)
	}
	p := rec.Profile()
	if p.Counter("ooc_tile_plan_hits") != int64(res.PlanHits) {
		t.Fatalf("trace counter reports %d tile hits, result %d",
			p.Counter("ooc_tile_plan_hits"), res.PlanHits)
	}
	if p.Counter("ooc_tiles") == 0 || p.Counter("ooc_bytes_spilled") == 0 {
		t.Fatal("out-of-core run recorded no tiles or spills")
	}
	if peak := p.Gauges["ooc_peak_tracked_bytes"]; peak <= 0 || peak > float64(24<<10) {
		t.Fatalf("peak tracked bytes gauge %v outside (0, budget]", peak)
	}
	for i, it := range res.Iters {
		if wantHit := i > 0; it.PlanHit != wantHit {
			t.Fatalf("iteration %d plan_hit=%v, want %v", it.Iteration, it.PlanHit, wantHit)
		}
	}
}

// TestPowerIterateCollapseOutOfCoreBitIdentical runs the collapse chain —
// a sparse, growing iterate projected onto the boolean semiring every
// step — through the out-of-core engine under a budget that spills and
// merges several tiles per panel, and requires the in-memory result bit
// for bit.
func TestPowerIterateCollapseOutOfCoreBitIdentical(t *testing.T) {
	a := randomCSR(testRNG(6), 160, 160, 0.02)
	const k = 4
	po := PowerOptions{Collapse: true}
	want, err := PowerIterate(context.Background(), a, k, po, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := blockreorg.NewTrace()
	got, err := PowerIterate(context.Background(), a, k, po,
		Options{MemBudget: 16 << 10, SpillDir: t.TempDir(), Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !got.M.Equal(want.M, 0) || got.M.NNZ() == 0 {
		t.Fatalf("out-of-core collapse chain (%d entries) differs bitwise from the in-memory run (%d)",
			got.M.NNZ(), want.M.NNZ())
	}
	p := rec.Profile()
	if tiles := p.Counter("ooc_tiles"); tiles < 4*int64(got.Iterations) || p.Counter("ooc_bytes_spilled") == 0 {
		t.Fatalf("out-of-core collapse chain ran %d tiles over %d iterations and spilled %d bytes, want a grid that spills",
			tiles, got.Iterations, p.Counter("ooc_bytes_spilled"))
	}
}

func TestPowerIterateOutOfCoreRejectsOtherAlgorithms(t *testing.T) {
	a := randomCSR(testRNG(4), 16, 16, 0.5)
	_, err := PowerIterate(context.Background(), a, 3, PowerOptions{},
		Options{MemBudget: 1 << 20, Algorithm: blockreorg.RowProduct})
	if !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("out-of-core row-product accepted: %v", err)
	}
}

func TestPowerIterateNoPlanReuse(t *testing.T) {
	a := randomCSR(testRNG(4), 24, 24, 1.0)
	res, err := PowerIterate(context.Background(), a, 4, PowerOptions{}, Options{NoPlanReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanHits != 0 || res.PlanMisses != 0 {
		t.Fatalf("disabled cache still reported %d hits / %d misses", res.PlanHits, res.PlanMisses)
	}
	withCache, err := PowerIterate(context.Background(), a, 4, PowerOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.M.Equal(withCache.M, 0) {
		t.Fatal("plan reuse changed the numeric result")
	}
}

func TestPowerIterateCollapseClosure(t *testing.T) {
	rng := testRNG(5)
	n := 30
	a := randomCSR(rng, n, n, 0.06)
	res, err := PowerIterate(context.Background(), a, n+1,
		PowerOptions{Collapse: true, SelfLoops: true, StopOnFixpoint: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("closure chain did not saturate within n iterations")
	}
	reach := bfsClosure(a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := res.M.At(i, j) != 0
			if got != reach[i][j] {
				t.Fatalf("closure disagrees with BFS at (%d,%d): got %v", i, j, got)
			}
		}
	}
	for i := 0; i < n; i++ {
		idx, val := res.M.Row(i)
		for k := range idx {
			if val[k] != 1 {
				t.Fatalf("collapsed entry (%d,%d) = %v, want 1", i, idx[k], val[k])
			}
		}
	}
}

// bfsClosure returns the reflexive-transitive reachability relation of the
// digraph, the oracle for the collapsed self-loop power chain.
func bfsClosure(a *sparse.CSR) [][]bool {
	n := a.Rows
	reach := make([][]bool, n)
	for s := 0; s < n; s++ {
		reach[s] = make([]bool, n)
		reach[s][s] = true
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			idx, _ := a.Row(u)
			for _, v := range idx {
				if !reach[s][v] {
					reach[s][v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return reach
}

func TestPowerIterateKOne(t *testing.T) {
	a := randomCSR(testRNG(6), 12, 12, 0.3)
	res, err := PowerIterate(context.Background(), a, 1, PowerOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("k=1 ran %d iterations", res.Iterations)
	}
	if !res.M.Equal(a, 0) {
		t.Fatal("A^1 != A")
	}
	res.M.Fill(math.Pi)
	if a.Equal(res.M, 0) {
		t.Fatal("k=1 result aliases the input")
	}
}

func TestPowerIterateInvalid(t *testing.T) {
	ctx := context.Background()
	if _, err := PowerIterate(ctx, nil, 2, PowerOptions{}, Options{}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("nil matrix: %v", err)
	}
	if _, err := PowerIterate(ctx, sparse.NewCSR(2, 3), 2, PowerOptions{}, Options{}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("rectangular matrix: %v", err)
	}
	if _, err := PowerIterate(ctx, sparse.Identity(3), 0, PowerOptions{}, Options{}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("k=0: %v", err)
	}
}
