package server

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
)

// COOPayload is the wire form of a sparse matrix: coordinate triplets in
// struct-of-arrays layout. Duplicate coordinates are merged by addition,
// matching the library's COO semantics.
type COOPayload struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	I    []int     `json:"i"`
	J    []int     `json:"j"`
	V    []float64 `json:"v"`
}

// maxPayloadDim bounds the rows and columns of a wire matrix. Conversion
// allocates in proportion to the dimensions before reading any entry, so
// an unbounded header would let a tiny request body exhaust memory. The
// bound admits every Table II network at full scale (the largest has
// 1.1 M rows).
const maxPayloadDim = 1 << 24

// ToCSR validates the payload and converts it. Exported so front-ends
// (the cluster router) can fingerprint inline operands without
// re-implementing the wire validation.
func (p *COOPayload) ToCSR() (*sparse.CSR, error) {
	if p.Rows < 0 || p.Cols < 0 {
		return nil, fmt.Errorf("negative dimensions %dx%d", p.Rows, p.Cols)
	}
	if p.Rows > maxPayloadDim || p.Cols > maxPayloadDim {
		return nil, fmt.Errorf("dimensions %dx%d exceed the %d limit", p.Rows, p.Cols, maxPayloadDim)
	}
	if len(p.I) != len(p.J) || len(p.I) != len(p.V) {
		return nil, fmt.Errorf("coordinate arrays disagree: %d i, %d j, %d v", len(p.I), len(p.J), len(p.V))
	}
	coo := sparse.NewCOO(p.Rows, p.Cols, len(p.I))
	for k := range p.I {
		if p.I[k] < 0 || p.I[k] >= p.Rows || p.J[k] < 0 || p.J[k] >= p.Cols {
			return nil, fmt.Errorf("entry %d at (%d, %d) outside %dx%d", k, p.I[k], p.J[k], p.Rows, p.Cols)
		}
		if math.IsNaN(p.V[k]) || math.IsInf(p.V[k], 0) {
			return nil, fmt.Errorf("entry %d holds non-finite value", k)
		}
		coo.Add(p.I[k], p.J[k], p.V[k])
	}
	m := coo.ToCSR()
	for _, v := range m.Val {
		if math.IsInf(v, 0) {
			return nil, fmt.Errorf("duplicate entries sum to a non-finite value")
		}
	}
	return m, nil
}

// PayloadFromCSR converts a matrix to its wire form — used for response
// bodies here and for building registration and inline-operand payloads in
// clients and front-ends.
func PayloadFromCSR(m *sparse.CSR) *COOPayload {
	coo := m.ToCOO()
	return &COOPayload{Rows: coo.Rows, Cols: coo.Cols, I: coo.I, J: coo.J, V: coo.V}
}

// Operand names a registered matrix or carries one inline.
type Operand struct {
	Name string      `json:"name,omitempty"`
	COO  *COOPayload `json:"coo,omitempty"`
}

// resolve returns the operand's matrix and structure fingerprint. Named
// operands reuse the registry's precomputed fingerprint; inline payloads
// are converted and fingerprinted here.
func (o *Operand) resolve(reg *Registry) (*sparse.CSR, uint64, error) {
	switch {
	case o.Name != "" && o.COO != nil:
		return nil, 0, fmt.Errorf("operand names %q and carries an inline payload; pick one", o.Name)
	case o.Name != "":
		m, ok := reg.Get(o.Name)
		if !ok {
			return nil, 0, fmt.Errorf("unknown matrix %q", o.Name)
		}
		return m.M, m.Fingerprint, nil
	case o.COO != nil:
		m, err := o.COO.ToCSR()
		if err != nil {
			return nil, 0, err
		}
		return m, m.StructureFingerprint(), nil
	default:
		return nil, 0, fmt.Errorf("operand is empty: provide \"name\" or \"coo\"")
	}
}

// MultiplyRequest is the body of POST /v1/multiply.
type MultiplyRequest struct {
	A Operand  `json:"a"`
	B *Operand `json:"b,omitempty"` // omitted: B = A, computing A²

	// Class is an opaque client-chosen label (an SLO class) echoed into
	// the request trace; the server does not interpret it.
	Class string `json:"class,omitempty"`

	Algorithm string `json:"algorithm,omitempty"` // default Block-Reorganizer
	GPU       string `json:"gpu,omitempty"`       // default: the worker's device

	// Accumulator selects the merge strategy: "auto" (or omitted, the
	// default), "dense", "hash" or "sort". The product is bit-identical
	// for every setting; the knob trades merge time and shows up in the
	// spgemmd_accum_rows_total metrics. The host merges every row dense
	// or sorted: a forced "hash" prices the simulated merge as a table
	// and merges its rows dense, counting them as dense. It chooses the
	// merge of cold runs only: a plan-cache hit fills the structure its
	// plan kept with the dense accumulator, and its rows count as dense.
	Accumulator string `json:"accumulator,omitempty"`

	// Block Reorganizer tuning; zero values select the paper's defaults.
	Alpha       float64 `json:"alpha,omitempty"`
	Beta        float64 `json:"beta,omitempty"`
	SplitFactor int     `json:"split_factor,omitempty"`
	LimitFactor int     `json:"limit_factor,omitempty"`

	// ReturnValues includes the product matrix in the job result as a COO
	// payload. Off by default: products of large networks are large.
	ReturnValues bool `json:"return_values,omitempty"`
	// Profile includes the host-side phase breakdown (per-phase wall time,
	// workload counters) in the job result. Every job is traced either way
	// — the per-phase Prometheus histograms are fed from the same record —
	// so this only controls the response payload.
	Profile bool `json:"profile,omitempty"`
	// TimeoutMillis bounds the job's total time in queue plus execution;
	// 0 selects the server default, and the server maximum caps it.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// JobResult is the outcome of a completed job.
type JobResult struct {
	Algorithm string `json:"algorithm"`
	Device    string `json:"device"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Flops     int64  `json:"flops"`
	NNZC      int64  `json:"nnz_c"`

	TotalSeconds     float64 `json:"total_seconds"`
	ExpansionSeconds float64 `json:"expansion_seconds"`
	MergeSeconds     float64 `json:"merge_seconds"`
	HostSeconds      float64 `json:"host_seconds"`
	GFLOPS           float64 `json:"gflops"`

	// PlanCacheHit reports that the run reused a cached preprocessing
	// plan, skipping the precalculation phase.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// Plan carries the Block Reorganizer classification counts.
	Plan *blockreorg.PlanSummary `json:"plan,omitempty"`
	// WallSeconds is the host-side service time (queue excluded).
	WallSeconds float64 `json:"wall_seconds"`
	// QueueWaitSeconds is the time the job spent queued before a worker
	// picked it up — the other half of the client-observed latency.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	// Profile is the host-side phase breakdown, present when the request
	// set "profile": true.
	Profile *trace.Profile `json:"profile,omitempty"`
	// Values is the product matrix, present when the request asked for it.
	Values *COOPayload `json:"values,omitempty"`
	// Pipeline carries the workload-level outcome of a pipeline job
	// (POST /v1/pipeline); nil for multiply jobs. The timing fields above
	// that describe a single simulated multiplication stay zero — a
	// pipeline run spans many — and WallSeconds covers the whole run.
	Pipeline *PipelineResult `json:"pipeline,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Failure kinds, for clients that retry: "client" faults will fail again,
// "timeout" and "internal" may not.
const (
	FailClient   = "client"
	FailTimeout  = "timeout"
	FailInternal = "internal"
)

// JobStatus is the wire form of a job, returned by GET /v1/jobs/{id}.
type JobStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	ErrorKind string     `json:"error_kind,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// Accepted is the body of a 202 answer to POST /v1/multiply and
// POST /v1/pipeline: the job id and the URL to poll it at.
type Accepted struct {
	Job string `json:"job"`
	URL string `json:"url"`
}

// job is the internal unit of work. The resolved operands are pinned at
// admission time so a poll never races a registry change, and dropped when
// the job turns terminal, so a finished job keeps only its result; the
// fingerprints ride along for the plan-cache key. Mutable fields are
// guarded by the owning store's mutex. A job is either a multiply (preq
// nil, req populated) or a pipeline run (preq set, b nil); both flow
// through the same queue, worker pool and lifecycle.
type job struct {
	id        string
	a, b      *sparse.CSR
	fpA, fpB  uint64
	req       MultiplyRequest
	preq      *PipelineRequest
	deadline  time.Time
	submitted time.Time // admission time, for queue-wait accounting

	state     string
	errKind   string
	errMsg    string
	result    *JobResult
	completed chan struct{} // closed on done/failed
}

// jobStore tracks every job by id.
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*job
	next int
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job)}
}

// add assigns j its id and admission time and records it as queued.
func (s *jobStore) add(j *job) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	j.id = fmt.Sprintf("j-%d", s.next)
	j.submitted = time.Now()
	j.state = StateQueued
	j.completed = make(chan struct{})
	s.jobs[j.id] = j
	return j
}

// remove forgets a job that was never admitted to the queue.
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
}

// setRunning transitions a job out of the queue.
func (s *jobStore) setRunning(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.state = StateRunning
}

// finish records a successful result.
func (s *jobStore) finish(j *job, res *JobResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.state = StateDone
	j.result = res
	j.dropOperands()
	close(j.completed)
}

// fail records a failure with its kind.
func (s *jobStore) fail(j *job, kind, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.state = StateFailed
	j.errKind = kind
	j.errMsg = msg
	j.dropOperands()
	close(j.completed)
}

// dropOperands releases what a terminal job no longer needs: the resolved
// operand matrices and the inline payloads they were decoded from. The
// store's mutex is held, and the request-trace record, the last reader,
// has been written.
func (j *job) dropOperands() {
	j.a, j.b = nil, nil
	j.req.A.COO = nil
	if j.req.B != nil {
		j.req.B.COO = nil
	}
	if j.preq != nil {
		j.preq.A.COO = nil
	}
}

// status snapshots a job for the API.
func (s *jobStore) status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return JobStatus{ID: j.id, State: j.state, ErrorKind: j.errKind, Error: j.errMsg, Result: j.result}, true
}
