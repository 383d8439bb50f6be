package blockreorg

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// cacheOperand returns a small operand for cache tests.
func cacheOperand(t *testing.T) *sparse.CSR {
	t.Helper()
	a, err := rmat.PowerLaw(40, 200, 2.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// cachedSquare multiplies a×a through c under fingerprints standing in for
// entry i, so tests choose the entry a request lands on, and reports
// whether the run reused a cached plan.
func cachedSquare(t *testing.T, c *PlanCache, a *sparse.CSR, i int, opts Options) bool {
	t.Helper()
	opts.SkipValues = true
	res, err := c.Multiply(context.Background(), a, a, uint64(i), uint64(i)^0xabcd, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.PlanReused
}

func TestPlanCacheLRU(t *testing.T) {
	a := cacheOperand(t)
	c := NewPlanCache(2)
	hit := func(i int) bool { return cachedSquare(t, c, a, i, Options{}) }

	if hit(1) {
		t.Fatal("empty cache reported a hit")
	}
	if !hit(1) {
		t.Fatal("the stored plan missed")
	}
	hit(2)
	hit(1)
	// Entry 1 is now most recent; a miss on entry 3 must evict entry 2.
	if hit(3) {
		t.Fatal("fresh entry 3 hit")
	}
	if !hit(1) {
		t.Fatal("recently used entry 1 was evicted")
	}
	if !hit(3) {
		t.Fatal("entry 3 missing")
	}
	if hit(2) {
		t.Fatal("LRU evicted the wrong entry (entry 2 survived)")
	}

	st := c.Stats()
	if st.Evictions != 2 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if st.Hits != 4 || st.Misses != 4 {
		t.Fatalf("hit accounting: %+v", st)
	}

	// A hit stores its rebinding over the entry rather than beside it.
	hit(2)
	if n := c.Stats().Size; n != 2 {
		t.Fatalf("re-storing grew the cache to %d", n)
	}

	// Requests differing only in tuning use distinct entries.
	if cachedSquare(t, c, a, 2, Options{Alpha: 4}) {
		t.Fatal("tuning-variant request hit the base entry")
	}
}

func TestPlanCacheMinimumCapacity(t *testing.T) {
	c := NewPlanCache(0)
	if got := c.Stats().Capacity; got != 1 {
		t.Fatalf("capacity %d, want clamp to 1", got)
	}
}

// TestPlanCacheBindRebindFailure: a cached plan whose cheap invariants do
// not match the operands (a fingerprint collision) is not used; the
// request counts as a miss, multiplies cold and replaces the entry.
func TestPlanCacheBindRebindFailure(t *testing.T) {
	a := cacheOperand(t)
	other, err := rmat.PowerLaw(60, 300, 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(4)
	cachedSquare(t, c, a, 1, Options{})
	if cachedSquare(t, c, other, 1, Options{}) {
		t.Fatal("a plan that cannot be bound to the operands drove the run")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 1 {
		t.Fatalf("after the collision: %+v; want 0 hits, 2 misses, 1 entry", st)
	}
	if !cachedSquare(t, c, other, 1, Options{}) {
		t.Fatal("the colliding entry was not replaced")
	}
}

// TestPlanCacheNil: a nil cache is a disabled one.
func TestPlanCacheNil(t *testing.T) {
	a := cacheOperand(t)
	var c *PlanCache
	for i := 0; i < 2; i++ {
		if cachedSquare(t, c, a, 1, Options{}) {
			t.Fatal("nil cache reported a hit")
		}
	}
}

// TestPlanCacheBypass: requests that cannot yield a reusable plan run
// without touching the cache — neither counted nor stored — and a failed
// multiply stores nothing.
func TestPlanCacheBypass(t *testing.T) {
	a := cacheOperand(t)
	c := NewPlanCache(4)
	ctx := context.Background()
	if _, err := c.Multiply(ctx, a, a, 1, 2, Options{Alpha: math.NaN()}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NaN alpha: err %v, want ErrInvalidOptions", err)
	}
	res, err := c.Multiply(ctx, a, a, 1, 2, Options{Algorithm: CUSP})
	if err != nil || res.Algorithm != CUSP {
		t.Fatalf("CUSP through the cache: %v, %v", res, err)
	}
	if st := c.Stats(); st.Hits+st.Misses != 0 || st.Size != 0 {
		t.Fatalf("bypassing requests touched the cache: %+v", st)
	}

	// Requests that never run are neither counted nor stored: one under a
	// context that is already done, one whose B has a row too many.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Multiply(canceled, a, a, 1, 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err %v", err)
	}
	tall := sparse.NewCSR(a.Cols+1, a.Cols)
	if _, err := c.Multiply(ctx, a, tall, 1, 2, Options{}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("B with a row too many: err %v", err)
	}
	if st := c.Stats(); st != (CacheStats{Capacity: 4}) {
		t.Fatalf("requests that never ran touched the cache: %+v", st)
	}
}

// keyOf resolves opts as a run does, over operands of the cache tests'
// shape, and returns the request's plan key; ok is false when the request
// is rejected or cannot yield a reusable plan.
func keyOf(t *testing.T, fpA, fpB uint64, opts Options) (planKey, bool) {
	t.Helper()
	a := cacheOperand(t)
	_, kopts, err := resolveOptions(a, a, &opts)
	if err != nil {
		return planKey{}, false
	}
	return planKeyFor(fpA, fpB, &opts, kopts)
}

// TestPlanKeyFor pins what the key covers: every plan-shaping option
// separates entries, the defaulted spellings share them, and options that
// cannot yield a reusable plan get no key.
func TestPlanKeyFor(t *testing.T) {
	base, ok := keyOf(t, 1, 2, Options{})
	if !ok {
		t.Fatal("default options produced no key")
	}
	for _, tc := range []struct {
		name string
		fpA  uint64
		fpB  uint64
		opts Options
	}{
		{"fpA", 9, 2, Options{}},
		{"fpB", 1, 9, Options{}},
		{"GPU", 1, 2, Options{GPU: TeslaV100}},
		{"Alpha", 1, 2, Options{Alpha: 4}},
		{"Beta", 1, 2, Options{Beta: 4}},
		{"SplitFactor", 1, 2, Options{SplitFactor: 4}},
		{"LimitFactor", 1, 2, Options{LimitFactor: 2}},
		{"DisableSplit", 1, 2, Options{DisableSplit: true}},
		{"DisableGather", 1, 2, Options{DisableGather: true}},
		{"DisableLimit", 1, 2, Options{DisableLimit: true}},
		{"Accumulator", 1, 2, Options{Accumulator: "hash"}},
	} {
		k, ok := keyOf(t, tc.fpA, tc.fpB, tc.opts)
		if !ok {
			t.Errorf("%s: no key", tc.name)
		} else if k == base {
			t.Errorf("%s: changing it left the key unchanged", tc.name)
		}
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"accumulator auto", Options{Accumulator: "auto"}},
		{"GPU TitanXp", Options{GPU: TitanXp}},
		{"algorithm BlockReorganizer", Options{Algorithm: BlockReorganizer}},
		// Options that do not shape the plan share its entry.
		{"workers, paranoid", Options{Workers: 3, Paranoid: true}},
	} {
		if k, ok := keyOf(t, 1, 2, tc.opts); !ok || k != base {
			t.Errorf("%s: key %+v (ok=%v), want the default key", tc.name, k, ok)
		}
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"non-BR algorithm", Options{Algorithm: CuSPARSE}},
		{"unknown accumulator", Options{Accumulator: "radix"}},
	} {
		if _, ok := keyOf(t, 1, 2, tc.opts); ok {
			t.Errorf("%s: got a key, want ok=false", tc.name)
		}
	}

	// A plan of the caller's own drives the run and is not cached.
	a := cacheOperand(t)
	plan, err := NewPlan(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Plan: plan}
	_, kopts, err := resolveOptions(a, a, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := planKeyFor(1, 2, &opts, kopts); ok {
		t.Error("caller's plan: got a key, want ok=false")
	}
}

// TestDefaultTuningSharesPlanEntry pins that the key holds the tuning
// values Multiply resolves, not their spelling: the zero options and the
// same defaults written out build the same plan, so a cache run through
// both holds one entry and the second multiply rebinds the first's plan.
func TestDefaultTuningSharesPlanEntry(t *testing.T) {
	implicit := Options{}
	explicit := Options{Alpha: 10, Beta: 10, LimitFactor: 4}
	ki, ok1 := keyOf(t, 1, 2, implicit)
	ke, ok2 := keyOf(t, 1, 2, explicit)
	if !ok1 || !ok2 || ki != ke {
		t.Fatalf("keys %+v (ok=%v) and %+v (ok=%v) differ", ki, ok1, ke, ok2)
	}
	a := cacheOperand(t)
	fp := a.StructureFingerprint()
	c := NewPlanCache(4)
	for i, opts := range []Options{implicit, explicit} {
		res, err := c.Multiply(context.Background(), a, a, fp, fp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.PlanReused != (i == 1) {
			t.Fatalf("multiply %d: plan reused %v", i, res.PlanReused)
		}
	}
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("cache holds %d entries, want 1", st.Size)
	}
}

// TestNonFiniteThresholdsRejected pins that NaN and ±Inf thresholds are
// client faults: Multiply rejects them before any key is built, so the
// cache never stores a key that is unequal to itself (which would grow it
// past capacity and evict valid entries).
func TestNonFiniteThresholdsRejected(t *testing.T) {
	a := cacheOperand(t)
	c := NewPlanCache(1)
	cachedSquare(t, c, a, 1, Options{})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, opts := range map[string]Options{
			"Alpha": {Alpha: v, SkipValues: true},
			"Beta":  {Beta: v, SkipValues: true},
		} {
			if _, err := Multiply(a, a, opts); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s=%g: Multiply err %v, want ErrInvalidOptions", name, v, err)
			}
			if _, ok := keyOf(t, 1, 3, opts); ok {
				t.Errorf("%s=%g: got a key", name, v)
			}
			if _, err := c.Multiply(context.Background(), a, a, 1, 3, opts); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s=%g: PlanCache.Multiply err %v, want ErrInvalidOptions", name, v, err)
			}
		}
	}
	if !cachedSquare(t, c, a, 1, Options{}) {
		t.Fatal("the valid entry was evicted")
	}
}

// TestPlanCacheConcurrent hammers lookups, stores and evictions from many
// goroutines; run under -race by ci.sh.
func TestPlanCacheConcurrent(t *testing.T) {
	a := cacheOperand(t)
	c := NewPlanCache(8)
	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := uint64((g + i) % 16) // 16 entries over capacity 8: constant eviction
				if _, err := c.Multiply(context.Background(), a, a, k, k, Options{SkipValues: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > 8 {
		t.Fatalf("cache grew past capacity: %d", st.Size)
	}
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("lost lookups: hits %d + misses %d != %d", st.Hits, st.Misses, goroutines*perG)
	}
}
