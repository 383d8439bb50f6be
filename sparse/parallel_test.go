package sparse

import (
	"context"
	"errors"
	"runtime/debug"
	"testing"
	"testing/quick"
	"time"

	"github.com/blockreorg/blockreorg/internal/parallel"
)

// multiplyWorkers runs the host engine with the dense accumulator on an
// executor of the given size (0 selects the process-wide default).
func multiplyWorkers(a, b *CSR, workers int) (*CSR, error) {
	var ex *parallel.Executor
	if workers > 0 {
		ex = parallel.NewExecutor(workers)
	}
	return MultiplyConfigured(a, b, ex, nil, MulConfig{Accum: AccumDense})
}

func TestMultiplyParallelMatchesSerial(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		n := 1 + rng.IntN(40)
		k := 1 + rng.IntN(40)
		m := 1 + rng.IntN(40)
		a := randomCSR(rng, n, k, 0.2)
		b := randomCSR(rng, k, m, 0.2)
		want, err := Multiply(a, b)
		if err != nil {
			return false
		}
		for _, workers := range []int{0, 1, 2, 7} {
			got, err := multiplyWorkers(a, b, workers)
			if err != nil || got.Validate() != nil || !got.Identical(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyParallelSkewed(t *testing.T) {
	// A hub-heavy matrix exercises the work-weighted chunking: one row
	// holds most of the products.
	n := 400
	coo := NewCOO(n, n, 0)
	for j := 0; j < n; j++ {
		coo.Add(0, j, 1) // hub row
	}
	for i := 1; i < n; i++ {
		coo.Add(i, (i*7)%n, float64(i))
		coo.Add((i*3)%n, i, 0.5)
	}
	m := coo.ToCSR()
	want, err := Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := multiplyWorkers(m, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Identical(want) {
		t.Fatal("parallel result differs on skewed input")
	}
}

func TestMultiplyParallelShape(t *testing.T) {
	if _, err := multiplyWorkers(NewCSR(2, 3), NewCSR(4, 2), 2); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
}

// TestMultiplyParallelMostlyEmptyRows is the regression test for the old
// chunk-weighting heuristic (w+1 per row), which double-counted non-empty
// rows and let the empty-row mass of a 90%-empty matrix drag chunk
// boundaries toward equal row counts. The fixed weighting must keep the
// work of every chunk near the mean, and the parallel product must remain
// bit-identical to the sequential oracle.
func TestMultiplyParallelMostlyEmptyRows(t *testing.T) {
	const n = 4000
	rng := testRNG(17)
	coo := NewCOO(n, n, 0)
	// 10% populated rows with power-law degrees; the rest stay empty.
	for i := 0; i < n/10; i++ {
		deg := 1 + int(float64(300)/float64(i+1))
		for d := 0; d < deg; d++ {
			coo.Add(i, rng.IntN(n), 1+rng.Float64())
		}
	}
	m := coo.ToCSR()

	rowWork, err := IntermediateRowNNZ(m, m)
	if err != nil {
		t.Fatal(err)
	}
	var total, maxRow int64
	for _, w := range rowWork {
		total += w
		if w > maxRow {
			maxRow = w
		}
	}
	const parts = 16
	bounds := parallel.WeightedBounds(rowWork, parts)
	target := total/parts + 1
	for i := 0; i+1 < len(bounds); i++ {
		var work int64
		for _, w := range rowWork[bounds[i]:bounds[i+1]] {
			work += w
		}
		slack := int64(bounds[i+1] - bounds[i]) // nominal weight of empty rows
		if work > target+maxRow+slack {
			t.Fatalf("chunk %d carries %d of %d total work (target %d): empty-row weighting regressed",
				i, work, total, target)
		}
	}

	want, err := Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := multiplyWorkers(m, m, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !got.Identical(want) {
			t.Fatalf("workers=%d: parallel result not bit-identical on mostly-empty matrix", workers)
		}
	}
}

// TestMultiplyConfiguredOneWorkerPresized pins the single code path at one
// worker: with the row populations supplied, the engine writes every row
// into its exact slot, so its allocation count is a small constant however
// large the product is. An engine that grows the result by
// append-doubling allocates O(log nnz) times and fails here. Collection
// is paused so a GC cycle cannot empty the scratch arenas mid-measurement.
func TestMultiplyConfiguredOneWorkerPresized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random, so arena allocations are not countable")
	}
	const maxAllocs = 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ex := parallel.NewExecutor(1)
	for _, n := range []int{500, 4000} {
		m := randomCSR(testRNG(uint64(n)), n, n, 8/float64(n))
		rowNNZ, err := SymbolicRowNNZOn(m, m, ex)
		if err != nil {
			t.Fatal(err)
		}
		cfg := MulConfig{Accum: AccumAuto, RowNNZ: rowNNZ}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := MultiplyConfigured(m, m, ex, nil, cfg); err != nil {
				t.Fatal(err)
			}
		})
		var nnzc int
		for _, c := range rowNNZ {
			nnzc += c
		}
		if allocs > maxAllocs {
			t.Fatalf("n=%d (nnz(C)=%d): %.0f allocs per multiply, want <= %d",
				n, nnzc, allocs, maxAllocs)
		}
	}
}

func TestPrecalcSweepsMatchSerial(t *testing.T) {
	rng := testRNG(23)
	a := randomCSR(rng, 120, 90, 0.1)
	b := randomCSR(rng, 90, 150, 0.1)
	ex := parallel.NewExecutor(7)

	wantSym, err := SymbolicRowNNZ(a, b)
	if err != nil {
		t.Fatal(err)
	}
	gotSym, err := SymbolicRowNNZOn(a, b, ex)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSym {
		if wantSym[i] != gotSym[i] {
			t.Fatalf("SymbolicRowNNZOn differs at row %d: %d vs %d", i, gotSym[i], wantSym[i])
		}
	}

	wantInt, err := IntermediateRowNNZ(a, b)
	if err != nil {
		t.Fatal(err)
	}
	gotInt, err := IntermediateRowNNZOn(a, b, ex)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantInt {
		if wantInt[i] != gotInt[i] {
			t.Fatalf("IntermediateRowNNZOn differs at row %d: %d vs %d", i, gotInt[i], wantInt[i])
		}
	}

	if _, err := SymbolicRowNNZOn(NewCSR(2, 3), NewCSR(4, 2), ex); err == nil {
		t.Fatal("SymbolicRowNNZOn accepted mismatched shapes")
	}
	if _, err := IntermediateRowNNZOn(NewCSR(2, 3), NewCSR(4, 2), ex); err == nil {
		t.Fatal("IntermediateRowNNZOn accepted mismatched shapes")
	}
}

// TestStoppedViewReturnsItsError: on an executor view whose context is
// done, every loop of the host engine returns the context's error instead
// of output its skipped chunks never wrote, and a deadline that lands
// anywhere in a run yields that error or the exact product, never a
// half-written one.
func TestStoppedViewReturnsItsError(t *testing.T) {
	a := randomCSR(testRNG(29), 400, 400, 0.05)
	want, err := Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	ex := parallel.NewExecutor(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	view := ex.WithContext(ctx)
	if _, err := MultiplyConfigured(a, a, view, nil, MulConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiplyConfigured on a stopped view: err %v", err)
	}
	if _, err := SymbolicRowNNZOn(a, a, view); !errors.Is(err, context.Canceled) {
		t.Fatalf("SymbolicRowNNZOn on a stopped view: err %v", err)
	}
	if _, err := IntermediateRowNNZOn(a, a, view); !errors.Is(err, context.Canceled) {
		t.Fatalf("IntermediateRowNNZOn on a stopped view: err %v", err)
	}
	rowWork, err := IntermediateRowNNZ(a, a)
	if err != nil {
		t.Fatal(err)
	}
	rowNNZ, err := SymbolicRowNNZ(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MultiplyKnown(a, a, view, nil, rowWork, rowNNZ, want.Idx); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiplyKnown on a stopped view: err %v", err)
	}

	start := time.Now()
	if _, err := MultiplyConfigured(a, a, ex, nil, MulConfig{}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	for i := 0; i <= 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), full*time.Duration(i)/20)
		got, err := MultiplyConfigured(a, a, ex.WithContext(ctx), nil, MulConfig{})
		known, kerr := MultiplyKnown(a, a, ex.WithContext(ctx), nil, rowWork, rowNNZ, want.Idx)
		cancel()
		switch {
		case err != nil && !errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("deadline %d/20: err %v", i, err)
		case err == nil && !got.Identical(want):
			t.Fatalf("deadline %d/20: a run that reported success returned a wrong product", i)
		case kerr != nil && !errors.Is(kerr, context.DeadlineExceeded):
			t.Fatalf("deadline %d/20: MultiplyKnown err %v", i, kerr)
		case kerr == nil && !known.Identical(want):
			t.Fatalf("deadline %d/20: a MultiplyKnown run that reported success returned a wrong product", i)
		}
	}
}

func TestSortHelpers(t *testing.T) {
	short := []int{5, 2, 9, 1, 1, 7}
	insertionSortInts(short)
	for i := 1; i < len(short); i++ {
		if short[i-1] > short[i] {
			t.Fatalf("short sort wrong: %v", short)
		}
	}
	long := make([]int, 500)
	rng := testRNG(8)
	for i := range long {
		long[i] = rng.IntN(100)
	}
	insertionSortInts(long)
	for i := 1; i < len(long); i++ {
		if long[i-1] > long[i] {
			t.Fatalf("long sort wrong at %d", i)
		}
	}
}

func BenchmarkMultiplyParallel(b *testing.B) {
	rng := testRNG(99)
	a := randomCSR(rng, 800, 800, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiplyWorkers(a, a, 0); err != nil {
			b.Fatal(err)
		}
	}
}
