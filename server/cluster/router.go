package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/blockreorg/blockreorg/server"
)

// Options tunes the router. Zero values select the defaults noted on each
// field.
type Options struct {
	// Policy names the routing policy (see Policies). Default "affinity".
	Policy string
	// AdmitRate enables token-bucket admission control: the cluster-wide
	// sustained submission rate in requests/second. 0 disables admission
	// control entirely.
	AdmitRate float64
	// AdmitBurst is the token bucket's capacity (default: AdmitRate
	// rounded up, minimum 1) — how large a burst the router admits before
	// refilling at AdmitRate.
	AdmitBurst int
	// AffinityEntries bounds the affinity policy's fingerprint→instance
	// table (default 4096).
	AffinityEntries int
	// JobTTL bounds how long the router tracks a routed job that no one
	// polls to a terminal state; expired entries release their load
	// accounting. Default 5m.
	JobTTL time.Duration
	// MaxBodyBytes bounds request bodies at the router (default 64 MiB,
	// matching the instances).
	MaxBodyBytes int64
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.Policy == "" {
		o.Policy = PolicyAffinity
	}
	if o.AdmitBurst <= 0 && o.AdmitRate > 0 {
		o.AdmitBurst = int(o.AdmitRate + 0.999)
	}
	if o.JobTTL <= 0 {
		o.JobTTL = 5 * time.Minute
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	return o
}

// instState is the router's mutable per-instance bookkeeping, guarded by
// the router mutex.
type instState struct {
	cordoned    bool
	outstanding int
	pendingWork int64
}

// routedJob tracks one forwarded submission until a poll observes it
// terminal (or the TTL expires), so load accounting and drain know what
// each instance still owes.
type routedJob struct {
	instance int
	work     int64
	expires  time.Time
}

// Router is the cluster front-end: an http.Handler that admits, routes and
// forwards spgemmd requests across the instances, rewrites job ids so
// polls find their way back, and aggregates the fleet's metrics.
type Router struct {
	opts      Options
	reg       *server.Registry
	instances []*Instance
	policy    Policy
	bucket    *tokenBucket // nil: admission control disabled
	mux       *http.ServeMux

	mu       sync.Mutex
	draining bool
	states   []instState
	jobs     map[string]*routedJob
	// routedHits and routedMisses split the routed submissions by whether
	// the affinity table placed them; one policy serves the router's life.
	routedHits    uint64
	routedMisses  uint64
	admitRejected uint64
}

// errNoInstance rejects submissions when every instance is cordoned or
// draining.
var errNoInstance = errors.New("cluster: no eligible instance")

// NewRouter builds a router over the given instances. reg is the router's
// operand registry — pass the registry the in-process instances share so
// one registration covers the fleet, or nil for a fresh one (registrations
// are then broadcast to every instance that does not share it).
func NewRouter(instances []*Instance, reg *server.Registry, opts Options) (*Router, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one instance")
	}
	seen := make(map[string]bool, len(instances))
	for _, inst := range instances {
		if inst == nil {
			return nil, fmt.Errorf("cluster: nil instance")
		}
		if seen[inst.name] {
			return nil, fmt.Errorf("cluster: duplicate instance name %q", inst.name)
		}
		seen[inst.name] = true
	}
	opts = opts.withDefaults()
	policy, err := NewPolicy(opts.Policy, PolicyOptions{AffinityEntries: opts.AffinityEntries})
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = server.NewRegistry()
	}
	rt := &Router{
		opts:      opts,
		reg:       reg,
		instances: instances,
		policy:    policy,
		states:    make([]instState, len(instances)),
		jobs:      make(map[string]*routedJob),
	}
	if opts.AdmitRate > 0 {
		rt.bucket = newTokenBucket(opts.AdmitRate, opts.AdmitBurst, nil)
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/matrices", rt.handleListMatrices)
	rt.mux.HandleFunc("POST /v1/matrices", rt.handleRegisterMatrix)
	rt.mux.HandleFunc("POST /v1/multiply", rt.handleSubmit)
	rt.mux.HandleFunc("POST /v1/pipeline", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /cluster/status", rt.handleStatus)
	rt.mux.HandleFunc("POST /cluster/drain", rt.handleDrain)
	rt.mux.HandleFunc("POST /cluster/uncordon", rt.handleUncordon)
	return rt, nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Registry returns the router's operand registry.
func (rt *Router) Registry() *server.Registry { return rt.reg }

// PolicyName returns the active routing policy's name.
func (rt *Router) PolicyName() string { return rt.policy.Name() }

// Instances returns the routed instances in index order.
func (rt *Router) Instances() []*Instance {
	out := make([]*Instance, len(rt.instances))
	copy(out, rt.instances)
	return out
}

// setDraining flips the router into drain mode: submissions and
// registrations are refused with 503.
func (rt *Router) setDraining() {
	rt.mu.Lock()
	rt.draining = true
	rt.mu.Unlock()
}

// isDraining reports whether the router refuses new work.
func (rt *Router) isDraining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining
}

// instanceIndex resolves an instance name, -1 when unknown.
func (rt *Router) instanceIndex(name string) int {
	for i, inst := range rt.instances {
		if inst.name == name {
			return i
		}
	}
	return -1
}

// --- request forwarding ---

// forward issues one request against an instance. body may be nil (GET).
func (rt *Router) forward(ctx context.Context, idx int, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return rt.instances[idx].backend.RoundTrip(req)
}

// readBody drains a size-capped request body.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes))
}

// copyResponse relays an instance response verbatim, tagging the instance.
func copyResponse(w http.ResponseWriter, resp *http.Response, instance string) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Cluster-Instance", instance)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the error envelope the instances use.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- routing ---

// operandPeek is the slice of a submission body the router needs: the
// operands, for fingerprints and work estimation. Unknown fields are the
// instance's problem — the router forwards the raw body untouched.
type operandPeek struct {
	A server.Operand  `json:"a"`
	B *server.Operand `json:"b"`
}

// resolveOperand returns an operand's structure fingerprint and nnz.
// Named operands hit the router's registry; inline payloads are converted
// here (O(nnz), the price of routing on structure).
func (rt *Router) resolveOperand(o *server.Operand) (uint64, int64, error) {
	switch {
	case o.Name != "" && o.COO != nil:
		return 0, 0, fmt.Errorf("operand names %q and carries an inline payload; pick one", o.Name)
	case o.Name != "":
		m, ok := rt.reg.Get(o.Name)
		if !ok {
			return 0, 0, fmt.Errorf("unknown matrix %q", o.Name)
		}
		return m.Fingerprint, int64(m.M.NNZ()), nil
	case o.COO != nil:
		m, err := o.COO.ToCSR()
		if err != nil {
			return 0, 0, err
		}
		return m.StructureFingerprint(), int64(m.NNZ()), nil
	default:
		return 0, 0, fmt.Errorf("operand is empty: provide \"name\" or \"coo\"")
	}
}

// routingKey extracts the affinity key and estimated work from a raw
// submission body.
func (rt *Router) routingKey(raw []byte) (AffinityKey, int64, error) {
	var peek operandPeek
	if err := json.Unmarshal(raw, &peek); err != nil {
		return AffinityKey{}, 0, fmt.Errorf("bad request body: %v", err)
	}
	fpA, workA, err := rt.resolveOperand(&peek.A)
	if err != nil {
		return AffinityKey{}, 0, fmt.Errorf("operand a: %v", err)
	}
	key := AffinityKey{FpA: fpA, FpB: fpA}
	work := workA
	if peek.B != nil {
		fpB, workB, err := rt.resolveOperand(peek.B)
		if err != nil {
			return AffinityKey{}, 0, fmt.Errorf("operand b: %v", err)
		}
		key.FpB = fpB
		work += workB
	}
	return key, work, nil
}

// route picks an instance for the key and charges the load to it. The
// policy runs under the router mutex, so policies need no locking of
// their own.
func (rt *Router) route(key AffinityKey, work int64) (int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.pruneLocked()
	eligible := make([]Candidate, 0, len(rt.instances))
	for i, inst := range rt.instances {
		if rt.states[i].cordoned {
			continue
		}
		c := Candidate{
			Index:       i,
			Name:        inst.name,
			Outstanding: rt.states[i].outstanding,
			PendingWork: rt.states[i].pendingWork,
			QueueDepth:  -1, QueueCapacity: -1,
		}
		if inst.srv != nil {
			if inst.srv.Draining() {
				continue
			}
			c.QueueDepth, c.QueueCapacity = inst.srv.QueueStats()
		}
		eligible = append(eligible, c)
	}
	if len(eligible) == 0 {
		return -1, errNoInstance
	}
	d := rt.policy.Pick(PickInput{Key: key, Eligible: eligible})
	idx := eligible[d.Index].Index
	rt.states[idx].outstanding++
	rt.states[idx].pendingWork += work
	if d.AffinityHit {
		rt.routedHits++
	} else {
		rt.routedMisses++
	}
	return idx, nil
}

// release undoes route's load charge for a submission that never became a
// tracked job (forward error, instance rejection).
func (rt *Router) release(idx int, work int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.releaseLocked(idx, work)
}

func (rt *Router) releaseLocked(idx int, work int64) {
	if rt.states[idx].outstanding > 0 {
		rt.states[idx].outstanding--
	}
	if rt.states[idx].pendingWork -= work; rt.states[idx].pendingWork < 0 {
		rt.states[idx].pendingWork = 0
	}
}

// trackJob registers a forwarded job under its prefixed id.
func (rt *Router) trackJob(id string, idx int, work int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.jobs[id] = &routedJob{instance: idx, work: work, expires: time.Now().Add(rt.opts.JobTTL)}
}

// finishJob settles a tracked job observed in a terminal state.
func (rt *Router) finishJob(id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if j, ok := rt.jobs[id]; ok {
		rt.releaseLocked(j.instance, j.work)
		delete(rt.jobs, id)
	}
}

// pruneLocked expires tracked jobs past their TTL (callers hold rt.mu).
// A job nobody polls must not pin load accounting — or drain — forever.
func (rt *Router) pruneLocked() {
	now := time.Now()
	for id, j := range rt.jobs {
		if now.After(j.expires) {
			rt.releaseLocked(j.instance, j.work)
			delete(rt.jobs, id)
		}
	}
}

// addAdmitRejected counts one token-bucket refusal.
func (rt *Router) addAdmitRejected() {
	rt.mu.Lock()
	rt.admitRejected++
	rt.mu.Unlock()
}

// --- handlers ---

// handleSubmit admits, routes and forwards one multiply or pipeline
// submission, rewriting the accepted job id to "<instance>:<job>".
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if rt.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if rt.bucket != nil && !rt.bucket.Allow() {
		rt.addAdmitRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission control: cluster rate limit (%g req/s) exceeded", rt.opts.AdmitRate)
		return
	}
	raw, err := rt.readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	key, work, err := rt.routingKey(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	idx, err := rt.route(key, work)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	inst := rt.instances[idx]
	resp, err := rt.forward(r.Context(), idx, http.MethodPost, r.URL.Path, raw)
	if err != nil {
		rt.release(idx, work)
		writeError(w, http.StatusBadGateway, "instance %s: %v", inst.name, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		rt.release(idx, work)
		copyResponse(w, resp, inst.name)
		return
	}
	var accepted server.Accepted
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil || accepted.Job == "" {
		rt.release(idx, work)
		writeError(w, http.StatusBadGateway, "instance %s: unparseable accept response", inst.name)
		return
	}
	id := inst.name + ":" + accepted.Job
	rt.trackJob(id, idx, work)
	w.Header().Set("X-Cluster-Instance", inst.name)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"job":      id,
		"url":      "/v1/jobs/" + id,
		"instance": inst.name,
	})
}

// handleJob forwards a poll to the owning instance (encoded in the job-id
// prefix) and settles the router's load accounting on terminal states.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name, rest, ok := strings.Cut(id, ":")
	if !ok || rest == "" {
		writeError(w, http.StatusNotFound, "unknown job %q (cluster ids look like \"<instance>:<job>\")", id)
		return
	}
	idx := rt.instanceIndex(name)
	if idx < 0 {
		writeError(w, http.StatusNotFound, "unknown instance %q in job id", name)
		return
	}
	resp, err := rt.forward(r.Context(), idx, http.MethodGet, "/v1/jobs/"+rest, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "instance %s: %v", name, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		copyResponse(w, resp, name)
		return
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		writeError(w, http.StatusBadGateway, "instance %s: unparseable job status", name)
		return
	}
	if st.State == server.StateDone || st.State == server.StateFailed {
		rt.finishJob(id)
	}
	st.ID = id
	w.Header().Set("X-Cluster-Instance", name)
	writeJSON(w, http.StatusOK, st)
}

// handleRegisterMatrix registers the matrix in the router's registry (the
// routing source of truth for fingerprints) and broadcasts it to every
// instance that does not share that registry, so a single upload makes the
// operand multipliable on any shard.
func (rt *Router) handleRegisterMatrix(w http.ResponseWriter, r *http.Request) {
	if rt.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	raw, err := rt.readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var req server.RegisterRequest
	if err := server.DecodeRequest(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.COO == nil {
		writeError(w, http.StatusBadRequest, "missing \"coo\" payload")
		return
	}
	m, err := req.COO.ToCSR()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid matrix: %v", err)
		return
	}
	entry, err := rt.reg.Register(req.Name, m)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	for i, inst := range rt.instances {
		if inst.srv != nil && inst.srv.Registry() == rt.reg {
			continue // shares the router's registry — already visible
		}
		resp, err := rt.forward(r.Context(), i, http.MethodPost, "/v1/matrices", raw)
		if err != nil {
			writeError(w, http.StatusBadGateway, "registered at router, but instance %s failed: %v", inst.name, err)
			return
		}
		status := resp.StatusCode
		resp.Body.Close()
		// Conflict means the instance already holds the name (an earlier
		// broadcast or a replayed upload) — that is the desired state.
		if status != http.StatusCreated && status != http.StatusConflict {
			writeError(w, http.StatusBadGateway, "registered at router, but instance %s answered %d", inst.name, status)
			return
		}
	}
	writeJSON(w, http.StatusCreated, matrixInfo(entry))
}

// matrixInfo mirrors the instances' listing entry shape.
func matrixInfo(m *server.Matrix) map[string]any {
	return map[string]any{
		"name":        m.Name,
		"rows":        m.M.Rows,
		"cols":        m.M.Cols,
		"nnz":         m.M.NNZ(),
		"fingerprint": fmt.Sprintf("%016x", m.Fingerprint),
	}
}

// handleListMatrices lists the router's registry.
func (rt *Router) handleListMatrices(w http.ResponseWriter, _ *http.Request) {
	names := rt.reg.Names()
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		if m, ok := rt.reg.Get(name); ok {
			out = append(out, matrixInfo(m))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"matrices": out})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if rt.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "instances": len(rt.instances)})
}
