package core

import (
	"sync"

	"github.com/blockreorg/blockreorg/internal/gpusim"
)

// simMemoMax bounds the devices one plan remembers. Plan-cache keys name
// the device, so a cached plan normally meets exactly one.
const simMemoMax = 4

// SimMemo holds a plan's simulated expansion and merge kernel results per
// device. Every input to those kernels — block structure, row work, row
// populations, accumulator assignment — is structure-only, so the results
// depend on nothing but the plan and the device configuration, and a
// rebound plan may append them to its report instead of simulating again.
// The results are shared between reports and must be treated as
// read-only. A nil memo holds nothing. Safe for concurrent use.
type SimMemo struct {
	mu      sync.Mutex
	results map[gpusim.Config][]*gpusim.KernelResult
}

// Load returns the results stored for dev, if any.
func (m *SimMemo) Load(dev gpusim.Config) ([]*gpusim.KernelResult, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.results[dev]
	return res, ok
}

// Store records the results simulated for dev unless dev already has an
// entry (concurrent first runs simulate identical results; the first one
// stays). Once simMemoMax devices are held, further devices are simulated
// on every run instead.
func (m *SimMemo) Store(dev gpusim.Config, res []*gpusim.KernelResult) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.results == nil {
		m.results = make(map[gpusim.Config][]*gpusim.KernelResult)
	}
	if _, ok := m.results[dev]; !ok && len(m.results) < simMemoMax {
		m.results[dev] = res
	}
}
