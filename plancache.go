package blockreorg

import (
	"container/list"
	"sync"

	"github.com/blockreorg/blockreorg/sparse"
)

// PlanKey identifies a reusable preprocessing plan: the sparsity
// fingerprints of both operands (values excluded — refreshing a network's
// weights keeps its plans hot) plus every option that shapes the
// classification thresholds, the split/gather/limit decisions and the
// per-row accumulator assignment. Build one with PlanKeyFor.
type PlanKey struct {
	fpA, fpB                                  uint64
	gpu                                       GPU
	alpha, beta                               float64
	splitFactor, limitFactor                  int
	disableSplit, disableGather, disableLimit bool
	accum                                     sparse.AccumulatorKind
}

// PlanKeyFor returns the cache key of the plan a Block Reorganizer run of
// operands with structure fingerprints fpA and fpB under opts builds. The
// GPU and accumulator are normalized the way Multiply resolves them, so ""
// and TitanXp (or "" and "auto") share entries. ok is false when opts
// cannot produce a reusable plan — another algorithm, or an accumulator
// name or tuning value Multiply will reject — and such runs should bypass
// the cache. Rejecting a NaN threshold here also keeps every key equal to
// itself, which the cache's map lookups and evictions rely on.
func PlanKeyFor(fpA, fpB uint64, opts Options) (PlanKey, bool) {
	if opts.Algorithm != "" && opts.Algorithm != BlockReorganizer {
		return PlanKey{}, false
	}
	if _, err := opts.coreParams().Normalize(); err != nil {
		return PlanKey{}, false
	}
	accum, err := sparse.ParseAccumulator(opts.Accumulator)
	if err != nil {
		return PlanKey{}, false
	}
	gpu := opts.GPU
	if gpu == "" {
		gpu = TitanXp
	}
	return PlanKey{
		fpA: fpA, fpB: fpB,
		gpu:           gpu,
		alpha:         opts.Alpha,
		beta:          opts.Beta,
		splitFactor:   opts.SplitFactor,
		limitFactor:   opts.LimitFactor,
		disableSplit:  opts.DisableSplit,
		disableGather: opts.DisableGather,
		disableLimit:  opts.DisableLimit,
		accum:         accum,
	}, true
}

// CacheStats is a point-in-time snapshot of a PlanCache's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Size, Capacity          int
}

// PlanCache is a structure-keyed LRU of reusable Block Reorganizer plans:
// the one cache behind the serving layer, the pipeline runner and the
// out-of-core tile loop. Every caller runs the same sequence:
//
//	key, ok := PlanKeyFor(fpA, fpB, opts)
//	opts.Plan = cache.Bind(key, a, b) // when ok
//	res, err := Multiply(a, b, opts)
//	cache.Put(key, res.ReusablePlan()) // when ok and err == nil
//
// It is safe for concurrent use; cached plans are immutable, so one entry
// may be bound by any number of goroutines at once. A nil *PlanCache is a
// disabled cache: Bind always misses without counting and Put drops.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[PlanKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheSlot is the list payload: the key is carried for eviction.
type cacheSlot struct {
	key  PlanKey
	plan *Plan
}

// NewPlanCache returns an empty cache holding at most capacity plans
// (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[PlanKey]*list.Element),
	}
}

// Bind returns the plan cached under k rebound to (a, b), ready for
// Options.Plan, and marks the entry most recently used. It returns nil on
// a miss. A cached plan that fails to rebind — a fingerprint collision —
// counts as a miss, so the caller builds a fresh plan and Puts it over
// the colliding entry.
func (c *PlanCache) Bind(k PlanKey, a, b *sparse.CSR) *Plan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var cached *Plan
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		cached = el.Value.(*cacheSlot).plan
	}
	c.mu.Unlock()
	// Rebind is O(nnz(A)); run it outside the lock so concurrent
	// workers never serialize on each other's operands.
	var bound *Plan
	if cached != nil {
		bound, _ = cached.Rebind(a, b) // an error is a collision: a miss
	}
	c.mu.Lock()
	if bound != nil {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return bound
}

// Put stores p under k, evicting the least recently used entry when the
// cache is full. Re-putting an existing key replaces its plan with the
// latest binding and refreshes its recency. Nil plans are dropped.
func (c *PlanCache) Put(k PlanKey, p *Plan) {
	if c == nil || p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheSlot).plan = p
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.capacity {
		last := c.order.Back()
		if last == nil {
			break
		}
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheSlot).key)
		c.evictions++
	}
	c.items[k] = c.order.PushFront(&cacheSlot{key: k, plan: p})
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.items),
		Capacity:  c.capacity,
	}
}
