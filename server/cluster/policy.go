package cluster

import (
	"container/list"
	"fmt"
)

// The routing policy names NewPolicy accepts.
const (
	PolicyRoundRobin  = "round-robin"
	PolicyLeastLoaded = "least-loaded"
	PolicyAffinity    = "affinity"
)

// AffinityKey is the routing identity of a request's preprocessing
// structure: the operand fingerprints. The per-instance plan caches key on
// the full (fingerprints, device, tuning) tuple; the router only needs to
// co-locate same-structure traffic, so the fingerprints suffice. An A²
// request carries FpB == FpA, matching the server's plan-key convention.
type AffinityKey struct {
	FpA, FpB uint64
}

// Candidate is one eligible instance in a routing decision, with the load
// the router tracks for it. Outstanding and PendingWork count the routed
// jobs not yet observed terminal (see Router); QueueDepth/QueueCapacity
// are the instance's own admission queue when known (in-process backends),
// both -1 otherwise.
type Candidate struct {
	Index         int
	Name          string
	Outstanding   int
	PendingWork   int64
	QueueDepth    int
	QueueCapacity int
}

// Saturated reports whether the instance's admission queue is known to be
// full — a forwarded submission would bounce with 429.
func (c *Candidate) Saturated() bool {
	return c.QueueCapacity > 0 && c.QueueDepth >= c.QueueCapacity
}

// loadScore is the least-loaded ordering: outstanding jobs × estimated
// pending work, each shifted by one so an idle instance scores 1 and work
// only ever increases the score.
func (c *Candidate) loadScore() int64 {
	return (int64(c.Outstanding) + 1) * (c.PendingWork + 1)
}

// PickInput is a policy's view of one routing decision. Eligible lists the
// non-cordoned instances in index order; the router guarantees it is
// non-empty.
type PickInput struct {
	Key      AffinityKey
	Eligible []Candidate
}

// Decision is a policy's verdict: which eligible candidate takes the
// request, and whether the choice was an affinity-table hit.
type Decision struct {
	// Index is the position in PickInput.Eligible (not the instance index).
	Index       int
	AffinityHit bool
}

// Policy routes one request to one eligible instance. The router
// serializes Pick calls under its routing lock, so implementations keep
// per-policy state (counters, affinity tables) without internal locking.
type Policy interface {
	Name() string
	Pick(in PickInput) Decision
}

// PolicyOptions parameterizes policy construction.
type PolicyOptions struct {
	// AffinityEntries bounds the affinity policy's fingerprint→instance
	// table (default 4096). Other policies ignore it.
	AffinityEntries int
}

// NewPolicy builds a fresh instance of the named policy; each router gets
// its own.
func NewPolicy(name string, opts PolicyOptions) (Policy, error) {
	switch name {
	case PolicyRoundRobin:
		return &roundRobin{}, nil
	case PolicyLeastLoaded:
		return &leastLoaded{}, nil
	case PolicyAffinity:
		return newAffinityPolicy(opts.AffinityEntries), nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q (have %v)", name, Policies())
}

// Policies returns the policy names NewPolicy accepts, sorted.
func Policies() []string {
	return []string{PolicyAffinity, PolicyLeastLoaded, PolicyRoundRobin}
}

// roundRobin cycles through the eligible instances in order. The counter
// advances per decision, so a cordoned instance simply drops out of the
// rotation without skewing the shares of the rest.
type roundRobin struct {
	n uint64
}

func (p *roundRobin) Name() string { return PolicyRoundRobin }

func (p *roundRobin) Pick(in PickInput) Decision {
	i := int(p.n % uint64(len(in.Eligible)))
	p.n++
	return Decision{Index: i}
}

// leastLoaded routes to the candidate with the lowest load score
// (outstanding jobs × estimated pending work), ties broken by the lowest
// instance index — deterministic, so identical load states always route
// identically.
type leastLoaded struct{}

func (leastLoaded) Name() string { return PolicyLeastLoaded }

func (leastLoaded) Pick(in PickInput) Decision {
	return Decision{Index: pickLeastLoaded(in.Eligible)}
}

// pickLeastLoaded returns the index (into eligible) of the lowest-scored
// non-saturated candidate, or of the lowest-scored candidate overall when
// every queue is full (someone has to return the 429).
func pickLeastLoaded(eligible []Candidate) int {
	best, bestScore := -1, int64(0)
	for i := range eligible {
		if eligible[i].Saturated() {
			continue
		}
		if s := eligible[i].loadScore(); best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	if best >= 0 {
		return best
	}
	for i := range eligible {
		if s := eligible[i].loadScore(); best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// affinityPolicy pins each structure fingerprint to the instance that
// first served it, so re-multiplies of a known structure land where the
// rebindable plan already lives. Cold structures (no pin) fall back to
// least-loaded and create a pin. A pin is rewritten when its instance is
// ineligible or saturated at decision time: the fallback instance builds
// the plan on the diverted request, so later traffic should follow it
// there (the consistency rule DESIGN.md §16 records). The table is a
// bounded LRU; an evicted pin merely re-pins on the structure's next
// request.
type affinityPolicy struct {
	capacity int
	order    *list.List // front = most recently used
	pins     map[AffinityKey]*list.Element
}

// pinSlot is the LRU payload.
type pinSlot struct {
	key      AffinityKey
	instance int // instance index (Candidate.Index), stable across decisions
}

// defaultAffinityEntries bounds the affinity table when the options leave
// it unset. At 16 bytes of key per entry this is ~100 KiB — far cheaper
// than one mis-routed cold precalculation.
const defaultAffinityEntries = 4096

func newAffinityPolicy(capacity int) *affinityPolicy {
	if capacity <= 0 {
		capacity = defaultAffinityEntries
	}
	return &affinityPolicy{
		capacity: capacity,
		order:    list.New(),
		pins:     make(map[AffinityKey]*list.Element),
	}
}

func (p *affinityPolicy) Name() string { return PolicyAffinity }

// Entries reports the affinity table's current size (cluster status).
func (p *affinityPolicy) Entries() int { return len(p.pins) }

func (p *affinityPolicy) Pick(in PickInput) Decision {
	if el, ok := p.pins[in.Key]; ok {
		slot := el.Value.(*pinSlot)
		for i := range in.Eligible {
			if in.Eligible[i].Index == slot.instance && !in.Eligible[i].Saturated() {
				p.order.MoveToFront(el)
				return Decision{Index: i, AffinityHit: true}
			}
		}
		// The pinned instance is cordoned or saturated: divert to the
		// least-loaded candidate and move the pin there — the diverted
		// request rebuilds the plan on the fallback instance.
		i := pickLeastLoaded(in.Eligible)
		slot.instance = in.Eligible[i].Index
		p.order.MoveToFront(el)
		return Decision{Index: i}
	}
	i := pickLeastLoaded(in.Eligible)
	p.pin(in.Key, in.Eligible[i].Index)
	return Decision{Index: i}
}

// pin records key→instance, evicting the least recently used pin at
// capacity.
func (p *affinityPolicy) pin(key AffinityKey, instance int) {
	for len(p.pins) >= p.capacity {
		last := p.order.Back()
		if last == nil {
			break
		}
		p.order.Remove(last)
		delete(p.pins, last.Value.(*pinSlot).key)
	}
	p.pins[key] = p.order.PushFront(&pinSlot{key: key, instance: instance})
}
