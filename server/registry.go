package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/blockreorg/blockreorg/sparse"
)

// Matrix is a registered operand: the CSR payload plus the structural
// identity the plan cache keys on. Registered matrices are immutable.
type Matrix struct {
	Name        string
	M           *sparse.CSR
	Fingerprint uint64
}

// Registry holds the service's named operand matrices. All methods are
// safe for concurrent use; matrices are validated once at registration and
// treated as immutable afterwards.
type Registry struct {
	mu   sync.RWMutex
	mats map[string]*Matrix
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{mats: make(map[string]*Matrix)}
}

// Register validates m and stores it under name, computing its structure
// fingerprint. Registering an existing name fails: clients poll results by
// operand identity, so names must stay bound to one structure.
func (r *Registry) Register(name string, m *sparse.CSR) (*Matrix, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty matrix name")
	}
	if m == nil {
		return nil, fmt.Errorf("server: nil matrix %q", name)
	}
	if err := m.CheckDeep(); err != nil {
		return nil, fmt.Errorf("server: matrix %q: %w", name, err)
	}
	entry := &Matrix{Name: name, M: m, Fingerprint: m.StructureFingerprint()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.mats[name]; exists {
		return nil, fmt.Errorf("server: matrix %q already registered", name)
	}
	r.mats[name] = entry
	return entry, nil
}

// Get returns the matrix registered under name.
func (r *Registry) Get(name string) (*Matrix, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.mats[name]
	return m, ok
}

// Names returns the registered names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.mats))
	for name := range r.mats {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered matrices.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.mats)
}

// LoadDir registers every *.mtx and *.csrs file in dir, read by
// sparse.ReadFile, each under its base name without the extension. It
// returns the number of matrices loaded; the first unreadable or invalid
// file aborts the load.
func (r *Registry) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".mtx" && ext != ".csrs" {
			continue
		}
		m, err := sparse.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return loaded, fmt.Errorf("server: %w", err)
		}
		name := strings.TrimSuffix(e.Name(), ext)
		if _, err := r.Register(name, m); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}
