package core

import (
	"sync"

	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// simMemoMax bounds the (device, accumulator) pairs one plan remembers.
// Plan-cache keys name the device, so a cached plan normally meets exactly
// one device, under at most the four accumulator kinds.
const simMemoMax = 4

// simKey names one simulation of a plan: the device it ran on and the
// accumulator its merge was priced under.
type simKey struct {
	dev   gpusim.Config
	accum sparse.AccumulatorKind
}

// SimMemo holds a plan's simulated expansion and merge kernel results per
// device and accumulator kind. Every other input to those kernels — block
// structure, row work, row populations — is structure-only, so the results
// depend on nothing but the plan, the device configuration and the kind
// the merge is priced under, and a rebound plan may append them to its
// report instead of simulating again. The results are shared between
// reports and must be treated as read-only. A nil memo holds nothing. Safe
// for concurrent use.
type SimMemo struct {
	mu      sync.Mutex
	results map[simKey][]*gpusim.KernelResult
}

// Load returns the results stored for dev and accum, if any.
func (m *SimMemo) Load(dev gpusim.Config, accum sparse.AccumulatorKind) ([]*gpusim.KernelResult, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.results[simKey{dev, accum}]
	return res, ok
}

// Store records the results simulated for dev and accum unless that pair
// already has an entry (concurrent first runs simulate identical results;
// the first one stays). Once simMemoMax pairs are held, further pairs are
// simulated on every run instead.
func (m *SimMemo) Store(dev gpusim.Config, accum sparse.AccumulatorKind, res []*gpusim.KernelResult) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.results == nil {
		m.results = make(map[simKey][]*gpusim.KernelResult)
	}
	k := simKey{dev, accum}
	if _, ok := m.results[k]; !ok && len(m.results) < simMemoMax {
		m.results[k] = res
	}
}
