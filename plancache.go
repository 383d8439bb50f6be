package blockreorg

import (
	"container/list"
	"context"
	"sync"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/sparse"
)

// planKey identifies a reusable preprocessing plan: the sparsity
// fingerprints of both operands (values excluded — refreshing a network's
// weights keeps its plans hot) plus every option that shapes the
// classification thresholds, the split/gather/limit decisions and the
// per-row accumulator assignment. Build one with planKeyFor.
type planKey struct {
	fpA, fpB uint64
	gpu      GPU
	params   core.Params
	accum    sparse.AccumulatorKind
}

// planKeyFor returns the cache key of the plan a run of operands with
// structure fingerprints fpA and fpB builds, from the options
// resolveOptions validated and defaulted in place and the kernel options
// it built. Defaulting makes "" and TitanXp, "" and "auto", or a zero
// Alpha and the default α share entries; validation keeps NaN thresholds
// out, so every key is equal to itself, which the cache's map lookups and
// evictions rely on. ok is false when the run cannot yield a reusable
// plan — another algorithm, or a plan of the caller's own in opts.Plan —
// and such runs bypass the cache.
func planKeyFor(fpA, fpB uint64, opts *Options, kopts kernels.Options) (planKey, bool) {
	if opts.Plan != nil || opts.Algorithm != BlockReorganizer {
		return planKey{}, false
	}
	return planKey{fpA: fpA, fpB: fpB, gpu: opts.GPU, params: kopts.Core, accum: kopts.Accumulator}, true
}

// CacheStats is a point-in-time snapshot of a PlanCache's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Size, Capacity          int
}

// PlanCache is a structure-keyed LRU of reusable Block Reorganizer plans:
// the one cache behind the serving layer, the pipeline runner and the
// out-of-core tile loop, all of which multiply through PlanCache.Multiply.
// It is safe for concurrent use; cached plans are immutable, so one entry
// may be bound by any number of goroutines at once. A nil *PlanCache is a
// disabled cache: its Multiply is a plain MultiplyContext.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[planKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheSlot is the list payload: the key is carried for eviction.
type cacheSlot struct {
	key  planKey
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
		items:    make(map[planKey]*list.Element),
	}
}

// Multiply is MultiplyContext through the cache. A Block Reorganizer
// request whose operands have structure fingerprints fpA and fpB
// (sparse.CSR.StructureFingerprint) looks up the plan cached for them and
// its plan-shaping options; a hit is rebound to (a, b) in O(nnz(A)) and
// drives the run, skipping the precalculation; either way the run's plan
// is stored afterwards, so the entry always holds the latest binding. A
// cached plan that fails to rebind (a fingerprint collision) counts as a
// miss and is replaced. Only requests that pass validation under a live
// context are looked up and counted. Requests that cannot yield a
// reusable plan — another algorithm, or a plan of the caller's own in
// opts.Plan — bypass the cache without being counted, as does every
// request to a nil cache. A failed or cancelled multiply stores nothing.
func (c *PlanCache) Multiply(ctx context.Context, a, b *sparse.CSR, fpA, fpB uint64, opts Options) (*Result, error) {
	return run(ctx, a, b, opts, c, fpA, fpB)
}

// bind returns the plan cached under k rebound to (a, b), ready for
// Options.Plan, and marks the entry most recently used. It returns nil on
// a miss. A cached plan that fails to rebind — a fingerprint collision —
// counts as a miss, so the caller builds a fresh plan and puts it over
// the colliding entry.
func (c *PlanCache) bind(k planKey, a, b *sparse.CSR) *Plan {
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

// put stores p under k, evicting the least recently used entry when the
// cache is full. Re-putting an existing key replaces its plan with the
// latest binding and refreshes its recency.
func (c *PlanCache) put(k planKey, p *Plan) {
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
