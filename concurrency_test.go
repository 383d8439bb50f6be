package blockreorg_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func testMatrix(t *testing.T, seed uint64) *sparse.CSR {
	t.Helper()
	a, err := rmat.PowerLaw(300, 4000, 2.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestConcurrentMultiply hammers Multiply from many goroutines over shared
// operands and a shared reusable plan — the access pattern of the serving
// layer's worker pool. Run under -race by ci.sh.
func TestConcurrentMultiply(t *testing.T) {
	a := testMatrix(t, 3)
	want, err := blockreorg.Multiply(a, a, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := blockreorg.NewPlan(a, a, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Plain multiply over the shared operands.
			res, err := blockreorg.Multiply(a, a, blockreorg.Options{})
			if err != nil {
				errs <- err
				return
			}
			if !res.C.Equal(want.C, 1e-9) {
				errs <- errors.New("concurrent multiply diverged")
				return
			}
			// Rebind the shared plan to private operand copies (fresh
			// values) and multiply through it.
			a2 := a.Clone()
			a2.Scale(float64(w + 2))
			p2, err := plan.Rebind(a2, a2)
			if err != nil {
				errs <- err
				return
			}
			res2, err := blockreorg.Multiply(a2, a2, blockreorg.Options{Plan: p2})
			if err != nil {
				errs <- err
				return
			}
			if !res2.PlanReused {
				errs <- errors.New("plan-driven multiply did not reuse the plan")
				return
			}
			wantScaled := want.C.Clone()
			wantScaled.Scale(float64(w+2) * float64(w+2))
			if !res2.C.Equal(wantScaled, 1e-6) {
				errs <- errors.New("plan-driven multiply diverged")
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentPoisonedArenaReuse hammers the shared arenas from many
// goroutines with poisoning forced on: buffers recycle across concurrent
// multiplies, each return-to-pool overwrites the contents with sentinels,
// and every multiply must still be bit-identical to the sequential
// oracle. Run under -race by ci.sh, this is the strongest statement the
// host can make about the pooled scratch: no data race on the buffers,
// and no kernel reads a recycled value it did not write.
func TestConcurrentPoisonedArenaReuse(t *testing.T) {
	parallel.SetPoison(true)
	defer parallel.SetPoison(false)

	a := testMatrix(t, 9)
	want, err := sparse.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	// All goroutines share one multi-worker executor, so its slot pool
	// and the process-wide arenas see genuinely concurrent traffic.
	ex := parallel.NewExecutor(4)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				got, err := sparse.MultiplyConfigured(a, a, ex, nil, sparse.MulConfig{Accum: sparse.AccumDense})
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(want, 0) {
					errs <- errors.New("concurrent poisoned MultiplyConfigured diverged")
					return
				}
				res, err := blockreorg.Multiply(a, a, blockreorg.Options{})
				if err != nil {
					errs <- err
					return
				}
				if !res.C.Equal(want, 1e-9) {
					errs <- errors.New("concurrent poisoned Reorganizer diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTypedErrors(t *testing.T) {
	a := testMatrix(t, 4)
	tall := sparse.NewCSR(a.Cols+1, 5)

	if _, err := blockreorg.Multiply(a, tall, blockreorg.Options{}); !errors.Is(err, blockreorg.ErrDimensionMismatch) {
		t.Fatalf("mismatched shapes: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := blockreorg.Multiply(a, a, blockreorg.Options{Algorithm: "no-such-alg"}); !errors.Is(err, blockreorg.ErrUnknownAlgorithm) {
		t.Fatalf("bad algorithm: got %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := blockreorg.Multiply(a, a, blockreorg.Options{GPU: "no-such-gpu"}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("bad GPU: got %v, want ErrInvalidOptions", err)
	}
	if _, err := blockreorg.Multiply(nil, a, blockreorg.Options{}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("nil operand: got %v, want ErrInvalidOptions", err)
	}
	if _, err := blockreorg.Multiply(a, a, blockreorg.Options{Alpha: -1}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("negative alpha: got %v, want ErrInvalidOptions", err)
	}
	if _, err := blockreorg.Compare(a, a, "no-such-gpu"); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("compare with bad GPU: got %v, want ErrInvalidOptions", err)
	}
	if _, err := blockreorg.Compare(nil, nil, ""); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("compare with nil operands: got %v, want ErrInvalidOptions", err)
	}
	if _, err := blockreorg.Compare(sparse.NewCSR(3, 4), sparse.NewCSR(5, 2), ""); !errors.Is(err, blockreorg.ErrDimensionMismatch) {
		t.Fatalf("compare with mismatched shapes: got %v, want ErrDimensionMismatch", err)
	}

	// A plan bound to other operands must be rejected, not silently
	// rebuilt: the caller's cache bookkeeping is wrong.
	other := testMatrix(t, 5)
	plan, err := blockreorg.NewPlan(other, other, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blockreorg.Multiply(a, a, blockreorg.Options{Plan: plan}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("unbound plan: got %v, want ErrInvalidOptions", err)
	}
	if _, err := blockreorg.Multiply(other, other, blockreorg.Options{Plan: plan, Algorithm: blockreorg.RowProduct}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("plan with wrong algorithm: got %v, want ErrInvalidOptions", err)
	}
	if _, err := blockreorg.NewPlan(a, a, blockreorg.Options{Algorithm: blockreorg.CUSP}); !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("NewPlan with non-reorganizer algorithm: got %v, want ErrInvalidOptions", err)
	}
}

func TestMultiplyContext(t *testing.T) {
	a := testMatrix(t, 6)

	// A live context behaves exactly like Multiply.
	res, err := blockreorg.MultiplyContext(context.Background(), a, a, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := blockreorg.Multiply(a, a, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.Equal(want.C, 1e-9) {
		t.Fatal("context multiply diverged from plain multiply")
	}

	// An already-cancelled context fails fast.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := blockreorg.MultiplyContext(cancelled, a, a, blockreorg.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}

	// Validation outranks cancellation: a bad request reports its fault.
	if _, err := blockreorg.MultiplyContext(cancelled, a, a, blockreorg.Options{Algorithm: "bogus"}); !errors.Is(err, blockreorg.ErrUnknownAlgorithm) {
		t.Fatalf("bad request on dead context: got %v, want ErrUnknownAlgorithm", err)
	}

	// A deadline far too tight for a big product expires the call.
	big, err := rmat.PowerLaw(5_000, 100_000, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel2()
	if _, err := blockreorg.MultiplyContext(ctx, big, big, blockreorg.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}

// TestMultiplyContextStopsWork pins that a deadline stops the multiply
// instead of abandoning it: once MultiplyContext returns DeadlineExceeded
// on an operand that needs far longer than its deadline, no executor chunk
// runs and no goroutine of the run is left. Not parallel: the executor
// counters and the goroutine count are process-wide.
func TestMultiplyContextStopsWork(t *testing.T) {
	big, err := rmat.PowerLaw(20_000, 400_000, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := blockreorg.MultiplyContext(ctx, big, big, blockreorg.Options{Workers: 2, SkipValues: true})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: got %v, want context.DeadlineExceeded", i, err)
		}
		chunks := parallel.ReadStats().Chunks
		time.Sleep(20 * time.Millisecond)
		if ran := parallel.ReadStats().Chunks - chunks; ran != 0 {
			t.Fatalf("call %d: %d executor chunks ran after MultiplyContext returned", i, ran)
		}
		if n := settledGoroutines(base); n > base {
			t.Fatalf("call %d: %d goroutines after MultiplyContext returned, %d before", i, n, base)
		}
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to base — an executor helper that has signalled its WaitGroup may still
// be exiting — and returns the count.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
