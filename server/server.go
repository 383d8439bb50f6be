package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/prom"
	"github.com/blockreorg/blockreorg/workload"
)

// Config tunes the serving layer. Zero values select the defaults noted on
// each field.
type Config struct {
	// Workers is the size of the execution pool; each worker owns one
	// simulated device. Default 2.
	Workers int
	// GPUs assigns devices to workers round-robin; requests that name no
	// GPU run on their worker's device. Default: every worker simulates
	// the TITAN Xp.
	GPUs []string
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with 429. Default 64.
	QueueDepth int
	// PlanCacheSize bounds the plan cache (entries). Default 128.
	PlanCacheSize int
	// DefaultTimeout applies to jobs that set no timeout_ms; MaxTimeout
	// caps what a request may ask for. Defaults 30s and 2m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds request bodies (uploaded matrices). Default 64 MiB.
	MaxBodyBytes int64
	// Paranoid runs every multiplication with the deep sanitizer layer.
	Paranoid bool
	// RequestTrace, when set, receives an append-only JSONL request trace
	// (one workload.Record per terminal request: completed, failed, or
	// rejected at admission). Arrival offsets are measured from server
	// construction. Typically an append-opened file; spgemmd wires its
	// -trace-out flag here. The trace feeds `spgemmload score`.
	RequestTrace io.Writer
}

// withDefaults fills the zero fields and validates the device names.
func (c Config) withDefaults() (Config, error) {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if len(c.GPUs) == 0 {
		c.GPUs = []string{string(blockreorg.TitanXp)}
	}
	for _, g := range c.GPUs {
		if !knownGPU(g) {
			return c, fmt.Errorf("server: unknown GPU %q", g)
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c, nil
}

func knownGPU(name string) bool {
	for _, g := range blockreorg.Devices() {
		if string(g) == name {
			return true
		}
	}
	return false
}

func knownAlgorithm(name string) bool {
	for _, a := range blockreorg.Algorithms() {
		if string(a) == name {
			return true
		}
	}
	return false
}

// Server is the spgemmd serving layer: admission control in front of a
// bounded queue, a pool of workers each owning a simulated device, a job
// store polled over HTTP, and the structure-keyed plan cache.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *blockreorg.PlanCache
	jobs    *jobStore
	metrics *metrics
	queue   chan *job
	mux     *http.ServeMux

	// reqTrace is the request-trace recorder (nil when Config.RequestTrace
	// is unset); traceStart anchors its arrival offsets.
	reqTrace   *workload.TraceWriter
	traceStart time.Time

	wg        sync.WaitGroup
	startOnce sync.Once
	mu        sync.Mutex // guards draining and the queue close
	draining  bool
}

// New builds a server around reg (nil for an empty registry). Call Start
// to launch the worker pool, Handler for the HTTP surface, and Shutdown to
// drain.
func New(cfg Config, reg *Registry) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = NewRegistry()
	}
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		cache:      blockreorg.NewPlanCache(cfg.PlanCacheSize),
		jobs:       newJobStore(),
		queue:      make(chan *job, cfg.QueueDepth),
		traceStart: time.Now(),
	}
	s.metrics = newMetrics(s.cache.Stats, s.QueueStats)
	if cfg.RequestTrace != nil {
		s.reqTrace = workload.NewTraceWriter(cfg.RequestTrace)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/matrices", s.handleListMatrices)
	s.mux.HandleFunc("POST /v1/matrices", s.handleRegisterMatrix)
	s.mux.HandleFunc("POST /v1/multiply", s.handleMultiply)
	s.mux.HandleFunc("POST /v1/pipeline", s.handlePipeline)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	// Standard Go runtime profiling endpoints (net/http/pprof). The index
	// route also serves the named profiles (heap, goroutine, block, ...);
	// cmdline/profile/symbol/trace need their dedicated handlers.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for i := 0; i < s.cfg.Workers; i++ {
			gpu := s.cfg.GPUs[i%len(s.cfg.GPUs)]
			s.wg.Add(1)
			go func(gpu string) {
				defer s.wg.Done()
				for j := range s.queue {
					s.runJob(j, gpu)
				}
			}(gpu)
		}
	})
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's matrix registry.
func (s *Server) Registry() *Registry { return s.reg }

// Cache returns the server's plan cache.
func (s *Server) Cache() *blockreorg.PlanCache { return s.cache }

// Shutdown drains the server gracefully: new submissions are refused with
// 503, the queue is closed, and every admitted job — in flight or still
// queued — runs to completion before Shutdown returns. The context bounds
// the wait; on expiry the workers keep draining in the background but
// Shutdown reports ctx.Err(). Call after Start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueStats reports the admission queue's current depth and capacity —
// the load signal cluster routers use for saturation-aware placement.
func (s *Server) QueueStats() (depth, capacity int) {
	return len(s.queue), cap(s.queue)
}

// runJob executes one admitted job on the worker's device: the lifecycle
// both job kinds share. It accounts the queue wait, fails a job whose
// deadline passed in the queue, runs the multiply or pipeline under the
// job's deadline with a per-job trace recorder (the per-phase histograms
// are fed from its profile either way), classifies failures, and settles
// the request trace, the job store and the metrics. The trace record comes
// first: it is the last reader of the operands the store drops when the
// job turns terminal.
func (s *Server) runJob(j *job, workerGPU string) {
	start := time.Now()
	queueWait := start.Sub(j.submitted)
	s.metrics.queueWait.Observe(queueWait.Seconds())
	fail := func(kind, msg string) {
		s.traceFailed(j, kind, queueWait)
		s.jobs.fail(j, kind, msg)
		s.metrics.failed.Add(1)
	}
	if !start.Before(j.deadline) {
		fail(FailTimeout, "deadline expired while queued")
		return
	}
	s.jobs.setRunning(j)

	rec := blockreorg.NewTrace()
	ctx, cancel := context.WithDeadline(context.Background(), j.deadline)
	defer cancel()
	var out *JobResult
	var err error
	if j.preq != nil {
		out, err = s.runPipeline(ctx, j, workerGPU, rec)
	} else {
		out, err = s.runMultiply(ctx, j, workerGPU, rec)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fail(FailTimeout, fmt.Sprintf("deadline exceeded after %s", time.Since(start).Round(time.Millisecond)))
		case errors.Is(err, blockreorg.ErrDimensionMismatch),
			errors.Is(err, blockreorg.ErrUnknownAlgorithm),
			errors.Is(err, blockreorg.ErrInvalidOptions):
			fail(FailClient, err.Error())
		default:
			fail(FailInternal, err.Error())
		}
		return
	}

	wall := time.Since(start)
	profile := rec.Profile()
	s.metrics.addPhases(profile)
	out.WallSeconds = wall.Seconds()
	out.QueueWaitSeconds = queueWait.Seconds()
	label := out.Algorithm
	if p := out.Pipeline; p != nil {
		label = "pipeline/" + p.Workload
		s.metrics.iterations.Observe(float64(p.Iterations), p.Workload)
		s.metrics.pipelinePlanHits.Add(float64(p.PlanHits))
		s.metrics.pipelinePlanMisses.Add(float64(p.PlanMisses))
	}
	if j.req.Profile || (j.preq != nil && j.preq.Profile) {
		out.Profile = profile
	}
	s.traceDone(j, out, profile)
	s.jobs.finish(j, out)
	s.metrics.completed.Add(1)
	s.metrics.jobSeconds.Observe(wall.Seconds(), label)
}

// runMultiply runs one multiply job through the plan cache.
func (s *Server) runMultiply(ctx context.Context, j *job, workerGPU string, rec *blockreorg.Trace) (*JobResult, error) {
	opts := blockreorg.Options{
		Algorithm:   blockreorg.Algorithm(j.req.Algorithm),
		GPU:         blockreorg.GPU(j.req.GPU),
		Alpha:       j.req.Alpha,
		Beta:        j.req.Beta,
		SplitFactor: j.req.SplitFactor,
		LimitFactor: j.req.LimitFactor,
		Accumulator: j.req.Accumulator,
		Paranoid:    s.cfg.Paranoid,
		Trace:       rec,
	}
	if opts.Algorithm == "" {
		opts.Algorithm = blockreorg.BlockReorganizer
	}
	if opts.GPU == "" {
		opts.GPU = blockreorg.GPU(workerGPU)
	}

	// The Block Reorganizer's preprocessing depends only on the operands'
	// sparsity structure and the options the cache keys, so a hit is
	// rebound to this job's operands (O(nnz)) and skips the precalculation.
	res, err := s.cache.Multiply(ctx, j.a, j.b, j.fpA, j.fpB, opts)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Algorithm:        string(res.Algorithm),
		Device:           res.Device,
		Rows:             j.a.Rows,
		Cols:             j.b.Cols,
		Flops:            res.Flops,
		NNZC:             res.NNZC,
		TotalSeconds:     res.TotalSeconds,
		ExpansionSeconds: res.ExpansionSeconds,
		MergeSeconds:     res.MergeSeconds,
		HostSeconds:      res.HostSeconds,
		GFLOPS:           res.GFLOPS,
		PlanCacheHit:     res.PlanReused,
		Plan:             res.Plan,
	}
	if j.req.ReturnValues && res.C != nil {
		out.Values = PayloadFromCSR(res.C)
	}
	return out, nil
}

// --- HTTP handlers ---

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", prom.ContentType)
	_ = prom.Write(w, s.metrics.Gather()) // the scraper went away; nothing to report to
}

// matrixInfo is the listing entry for a registered matrix.
type matrixInfo struct {
	Name        string `json:"name"`
	Rows        int    `json:"rows"`
	Cols        int    `json:"cols"`
	NNZ         int    `json:"nnz"`
	Fingerprint string `json:"fingerprint"`
}

func infoFor(m *Matrix) matrixInfo {
	return matrixInfo{
		Name: m.Name,
		Rows: m.M.Rows, Cols: m.M.Cols, NNZ: m.M.NNZ(),
		Fingerprint: fmt.Sprintf("%016x", m.Fingerprint),
	}
}

func (s *Server) handleListMatrices(w http.ResponseWriter, _ *http.Request) {
	names := s.reg.Names()
	out := make([]matrixInfo, 0, len(names))
	for _, name := range names {
		if m, ok := s.reg.Get(name); ok {
			out = append(out, infoFor(m))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"matrices": out})
}

// RegisterRequest is the body of POST /v1/matrices.
type RegisterRequest struct {
	Name string      `json:"name"`
	COO  *COOPayload `json:"coo"`
}

func (s *Server) handleRegisterMatrix(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req RegisterRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
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
	entry, err := s.reg.Register(req.Name, m)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoFor(entry))
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req MultiplyRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	// Client faults are rejected at admission, before a queue slot is
	// spent: unresolvable operands, impossible shapes, unknown names.
	a, fpA, err := req.A.resolve(s.reg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "operand a: %v", err)
		return
	}
	b, fpB := a, fpA
	if req.B != nil {
		b, fpB, err = req.B.resolve(s.reg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "operand b: %v", err)
			return
		}
	}
	if a.Cols != b.Rows {
		writeError(w, http.StatusBadRequest, "dimension mismatch: cannot multiply %dx%d by %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
		return
	}
	if req.Algorithm != "" && !knownAlgorithm(req.Algorithm) {
		writeError(w, http.StatusBadRequest, "unknown algorithm %q", req.Algorithm)
		return
	}
	if req.GPU != "" && !knownGPU(req.GPU) {
		writeError(w, http.StatusBadRequest, "unknown GPU %q", req.GPU)
		return
	}

	s.admit(w, s.jobs.add(&job{a: a, b: b, fpA: fpA, fpB: fpB, req: req, deadline: s.deadline(req.TimeoutMillis)}))
}

// deadline resolves a request's timeout_ms: 0 selects the server default,
// and the server maximum caps it.
func (s *Server) deadline(timeoutMillis int64) time.Time {
	timeout := s.cfg.DefaultTimeout
	if timeoutMillis > 0 {
		timeout = min(time.Duration(timeoutMillis)*time.Millisecond, s.cfg.MaxTimeout)
	}
	return time.Now().Add(timeout)
}

// admit enqueues a job either submit handler built and answers: 202 with
// its poll URL, 503 while draining, or 429 with Retry-After when the queue
// is full. The drain mutex is held across the non-blocking send, so a
// concurrent Shutdown can never close the queue between the check and the
// send.
func (s *Server) admit(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	draining, queued := s.draining, false
	if !draining {
		select {
		case s.queue <- j:
			queued = true
		default:
		}
	}
	s.mu.Unlock()
	switch {
	case queued:
		s.metrics.submitted.Add(1)
		writeJSON(w, http.StatusAccepted, Accepted{Job: j.id, URL: "/v1/jobs/" + j.id})
	case draining:
		s.jobs.remove(j.id)
		writeError(w, http.StatusServiceUnavailable, "draining")
	default:
		s.jobs.remove(j.id)
		s.metrics.rejected.Add(1)
		s.traceRejected(j)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue is full (%d jobs)", s.cfg.QueueDepth)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.jobs.status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
