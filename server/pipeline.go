package server

import (
	"context"
	"fmt"
	"net/http"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/pipeline"
)

// Pipeline workload names accepted by POST /v1/pipeline.
const (
	WorkloadPower      = "power"
	WorkloadMCL        = "mcl"
	WorkloadSimilarity = "similarity"
)

// PipelineRequest is the body of POST /v1/pipeline: one iterative
// graph-analytics workload over a single operand, run asynchronously
// through the same bounded queue, worker pool and job store as multiply
// jobs.
type PipelineRequest struct {
	// A is the graph's adjacency matrix (registered name or inline COO).
	A Operand `json:"a"`
	// Workload is "power", "mcl" or "similarity".
	Workload string `json:"workload"`
	// Class is an opaque client-chosen label (an SLO class) echoed into
	// the request trace; the server does not interpret it.
	Class string `json:"class,omitempty"`

	// Power options: K is the exponent (default 2); Collapse projects onto
	// the boolean semiring after every multiply; SelfLoops adds the
	// identity first (reachability closure); StopOnFixpoint exits early
	// once the iterate stops changing.
	K              int  `json:"k,omitempty"`
	Collapse       bool `json:"collapse,omitempty"`
	SelfLoops      bool `json:"self_loops,omitempty"`
	StopOnFixpoint bool `json:"stop_on_fixpoint,omitempty"`

	// MCL options; zero values select the classic defaults (inflation 2,
	// prune tolerance 1e-4, chaos epsilon 1e-6).
	Inflation     float64 `json:"inflation,omitempty"`
	PruneTol      float64 `json:"prune_tol,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`

	// Similarity options: Measure is "common" (default) or "cosine"; Mask
	// is "none" (default), "existing" or "new"; MinScore prunes scores at
	// or below the threshold.
	Measure  string  `json:"measure,omitempty"`
	Mask     string  `json:"mask,omitempty"`
	MinScore float64 `json:"min_score,omitempty"`

	Algorithm string `json:"algorithm,omitempty"` // default Block-Reorganizer
	GPU       string `json:"gpu,omitempty"`       // default: the worker's device

	// ReturnValues includes the final matrix (power result, MCL limit
	// matrix, similarity scores) in the job result as a COO payload.
	ReturnValues bool `json:"return_values,omitempty"`
	// ReturnClusters includes the MCL cluster assignment (ignored by the
	// other workloads). Defaults to true for MCL — the assignment is the
	// point of the workload and costs one int per node.
	ReturnClusters *bool `json:"return_clusters,omitempty"`
	// Profile includes the phase breakdown — pipeline.* step spans plus
	// the inner multiply phases — in the job result.
	Profile bool `json:"profile,omitempty"`
	// TimeoutMillis bounds queue plus execution time; expiry cancels the
	// run between steps and stops an in-flight multiply at its next chunk.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// PipelineResult is the workload-level slice of a pipeline job's outcome,
// carried inside JobResult.
type PipelineResult struct {
	Workload   string `json:"workload"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
	// PlanHits / PlanMisses split the run's multiplies by cross-iteration
	// plan-cache outcome (the Runner's cache, not the server's).
	PlanHits   int `json:"plan_hits"`
	PlanMisses int `json:"plan_misses"`
	// NNZ is the final iterate's population.
	NNZ int `json:"nnz"`
	// Iters details every iteration in order.
	Iters []pipeline.IterationStat `json:"iters,omitempty"`
	// Clusters and NumClusters are present for converged MCL runs when the
	// request kept ReturnClusters on.
	Clusters    []int `json:"clusters,omitempty"`
	NumClusters int   `json:"num_clusters,omitempty"`
}

func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req PipelineRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	// Admission-time rejection of client faults, mirroring handleMultiply:
	// no queue slot is spent on a request that cannot run.
	switch req.Workload {
	case WorkloadPower, WorkloadMCL, WorkloadSimilarity:
	case "":
		writeError(w, http.StatusBadRequest, "missing \"workload\"")
		return
	default:
		writeError(w, http.StatusBadRequest, "unknown workload %q", req.Workload)
		return
	}
	a, fpA, err := req.A.resolve(s.reg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "operand a: %v", err)
		return
	}
	needSquare := req.Workload != WorkloadSimilarity ||
		(req.Mask != "" && req.Mask != pipeline.MaskNone)
	if needSquare && a.Rows != a.Cols {
		writeError(w, http.StatusBadRequest, "workload %q needs a square matrix, got %dx%d",
			req.Workload, a.Rows, a.Cols)
		return
	}
	if req.Workload == WorkloadPower {
		if req.K == 0 {
			req.K = 2
		}
		if req.K < 1 {
			writeError(w, http.StatusBadRequest, "power exponent k=%d must be at least 1", req.K)
			return
		}
	}
	if req.Inflation < 0 || req.PruneTol < 0 || req.Epsilon < 0 || req.MaxIterations < 0 || req.MinScore < 0 {
		writeError(w, http.StatusBadRequest, "negative workload parameter")
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

	s.admit(w, s.jobs.add(&job{a: a, fpA: fpA, preq: &req, deadline: s.deadline(req.TimeoutMillis)}))
}

// runPipeline runs one pipeline job. The job deadline is ctx's deadline,
// so an expired job cancels between pipeline steps and stops an in-flight
// multiply once the chunk or phase it is running ends — the worker is
// back on the queue promptly, no CPU goes to a dead run, and Shutdown's
// drain never waits on a dead run's full workload.
func (s *Server) runPipeline(ctx context.Context, j *job, workerGPU string, rec *blockreorg.Trace) (*JobResult, error) {
	req := j.preq
	gpu := req.GPU
	if gpu == "" {
		gpu = workerGPU
	}
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = string(blockreorg.BlockReorganizer)
	}
	opts := pipeline.Options{
		Algorithm: blockreorg.Algorithm(algorithm),
		GPU:       blockreorg.GPU(gpu),
		Paranoid:  s.cfg.Paranoid,
		Trace:     rec,
	}

	var res *pipeline.Result
	var clusters []int
	numClusters := 0
	var err error
	switch req.Workload {
	case WorkloadPower:
		res, err = pipeline.PowerIterate(ctx, j.a, req.K, pipeline.PowerOptions{
			Collapse:       req.Collapse,
			SelfLoops:      req.SelfLoops,
			StopOnFixpoint: req.StopOnFixpoint,
		}, opts)
	case WorkloadMCL:
		var mres *pipeline.MCLResult
		mres, err = pipeline.MCL(ctx, j.a, pipeline.MCLOptions{
			Inflation:     req.Inflation,
			PruneTol:      req.PruneTol,
			Epsilon:       req.Epsilon,
			MaxIterations: req.MaxIterations,
		}, opts)
		if err == nil {
			res = mres.Result
			if req.ReturnClusters == nil || *req.ReturnClusters {
				clusters = mres.Clusters
				numClusters = mres.NumClusters
			}
		}
	case WorkloadSimilarity:
		res, err = pipeline.Similarity(ctx, j.a, pipeline.SimilarityOptions{
			Measure:  req.Measure,
			Mask:     req.Mask,
			MinScore: req.MinScore,
		}, opts)
	default:
		err = fmt.Errorf("%w: unknown workload %q", blockreorg.ErrInvalidOptions, req.Workload)
	}
	if err != nil {
		return nil, err
	}

	// A pipeline run spans many multiplies, so the single-multiplication
	// timing fields stay zero; in particular the request trace records no
	// simulated seconds for it.
	out := &JobResult{
		Algorithm: algorithm,
		Device:    gpu,
		Rows:      res.M.Rows,
		Cols:      res.M.Cols,
		NNZC:      int64(res.M.NNZ()),
		Pipeline: &PipelineResult{
			Workload:    req.Workload,
			Iterations:  res.Iterations,
			Converged:   res.Converged,
			PlanHits:    res.PlanHits,
			PlanMisses:  res.PlanMisses,
			NNZ:         res.M.NNZ(),
			Iters:       res.Iters,
			Clusters:    clusters,
			NumClusters: numClusters,
		},
	}
	if req.ReturnValues {
		out.Values = PayloadFromCSR(res.M)
	}
	return out, nil
}
