package blockreorg

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// cacheKey builds a distinct key per index.
func cacheKey(i int) PlanKey {
	return PlanKey{fpA: uint64(i), fpB: uint64(i) ^ 0xabcd, gpu: TitanXp}
}

// dummyPlan builds a real (small) plan so the cache holds live values,
// and returns the operand it is bound to (as both A and B).
func dummyPlan(t *testing.T) (*Plan, *sparse.CSR) {
	t.Helper()
	a, err := rmat.PowerLaw(40, 200, 2.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, a
}

func TestPlanCacheLRU(t *testing.T) {
	p, a := dummyPlan(t)
	c := NewPlanCache(2)
	bind := func(i int) bool { return c.Bind(cacheKey(i), a, a) != nil }

	if bind(1) {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(cacheKey(1), p)
	c.Put(cacheKey(2), p)
	if !bind(1) {
		t.Fatal("key 1 missing before eviction")
	}
	// Key 1 is now most recent; inserting key 3 must evict key 2.
	c.Put(cacheKey(3), p)
	if bind(2) {
		t.Fatal("LRU evicted the wrong entry (key 2 survived)")
	}
	if !bind(1) {
		t.Fatal("recently used key 1 was evicted")
	}
	if !bind(3) {
		t.Fatal("fresh key 3 missing")
	}

	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// hits: 1(pre) + 1 + 3 misses: initial + key-2 probe
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("hit accounting: %+v", st)
	}

	// Re-putting refreshes rather than duplicating.
	c.Put(cacheKey(3), p)
	if n := c.Stats().Size; n != 2 {
		t.Fatalf("re-put grew the cache to %d", n)
	}

	// Keys differing only in tuning are distinct.
	k := cacheKey(1)
	k.alpha = 0.5
	if c.Bind(k, a, a) != nil {
		t.Fatal("tuning-variant key matched the base entry")
	}

	// Nil plans are never admitted.
	c.Put(cacheKey(9), nil)
	if bind(9) {
		t.Fatal("nil plan was cached")
	}
}

func TestPlanCacheMinimumCapacity(t *testing.T) {
	c := NewPlanCache(0)
	if got := c.Stats().Capacity; got != 1 {
		t.Fatalf("capacity %d, want clamp to 1", got)
	}
}

// TestPlanCacheBindRebindFailure: a cached plan whose cheap invariants do
// not match the operands (a fingerprint collision) is not handed out and
// counts as a miss, not a hit.
func TestPlanCacheBindRebindFailure(t *testing.T) {
	p, _ := dummyPlan(t)
	other, err := rmat.PowerLaw(60, 300, 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(4)
	c.Put(cacheKey(1), p)
	if got := c.Bind(cacheKey(1), other, other); got != nil {
		t.Fatal("Bind returned a plan that cannot be bound to the operands")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("rebind failure counted as %d hits, %d misses; want 0 and 1", st.Hits, st.Misses)
	}
}

// TestPlanCacheNil: a nil cache is a disabled one.
func TestPlanCacheNil(t *testing.T) {
	p, a := dummyPlan(t)
	var c *PlanCache
	c.Put(cacheKey(1), p)
	if c.Bind(cacheKey(1), a, a) != nil {
		t.Fatal("nil cache reported a hit")
	}
}

// TestPlanKeyFor pins what the key covers: every plan-shaping option
// separates entries, the defaulted spellings share them, and options that
// cannot yield a reusable plan get no key.
func TestPlanKeyFor(t *testing.T) {
	base, ok := PlanKeyFor(1, 2, Options{})
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
		k, ok := PlanKeyFor(tc.fpA, tc.fpB, tc.opts)
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
		if k, ok := PlanKeyFor(1, 2, tc.opts); !ok || k != base {
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
		if _, ok := PlanKeyFor(1, 2, tc.opts); ok {
			t.Errorf("%s: got a key, want ok=false", tc.name)
		}
	}
}

// TestNonFiniteThresholdsRejected pins that NaN and ±Inf thresholds are
// client faults: Multiply rejects them, PlanKeyFor gives no key, and so a
// caller following the PlanCache sequence never stores a key that is
// unequal to itself (which would grow the cache past capacity and evict
// valid entries).
func TestNonFiniteThresholdsRejected(t *testing.T) {
	p, a := dummyPlan(t)
	valid, ok := PlanKeyFor(1, 2, Options{})
	if !ok {
		t.Fatal("default options produced no key")
	}
	c := NewPlanCache(4)
	c.Put(valid, p)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, opts := range map[string]Options{
			"Alpha": {Alpha: v, SkipValues: true},
			"Beta":  {Beta: v, SkipValues: true},
		} {
			if _, err := Multiply(a, a, opts); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s=%g: Multiply err %v, want ErrInvalidOptions", name, v, err)
			}
			// The same request repeated: a well-formed key replaces
			// its own entry each time.
			for i := 0; i < 10; i++ {
				if k, ok := PlanKeyFor(1, 3, opts); ok {
					c.Put(k, p)
				}
			}
		}
	}
	if st := c.Stats(); st.Size > st.Capacity {
		t.Fatalf("cache holds %d entries, capacity %d", st.Size, st.Capacity)
	}
	if c.Bind(valid, a, a) == nil {
		t.Fatal("the valid entry was evicted")
	}
}

// TestPlanCacheConcurrent hammers bind/put/evict from many goroutines; run
// under -race by ci.sh.
func TestPlanCacheConcurrent(t *testing.T) {
	p, a := dummyPlan(t)
	c := NewPlanCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := cacheKey((g + i) % 16) // 16 keys over capacity 8: constant eviction
				if got := c.Bind(k, a, a); got != nil && !got.BoundTo(a, a) {
					t.Error("hit returned a plan not bound to the operands")
					return
				}
				c.Put(k, p)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > 8 {
		t.Fatalf("cache grew past capacity: %d", st.Size)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("lost lookups: hits %d + misses %d != %d", st.Hits, st.Misses, 8*200)
	}
}
