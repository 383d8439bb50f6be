package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/workload"
)

// pollInterval is the job-status polling cadence of the live runner.
const pollInterval = 5 * time.Millisecond

// runOptions configures a live load run.
type runOptions struct {
	// Speed compresses the compiled arrival timeline (2 = twice the
	// arrival rate). Default 1.
	Speed float64
	// RequestTimeout is the per-request timeout_ms sent to the server
	// (0: server default).
	RequestTimeout time.Duration
}

// run issues a compiled request stream against a live server and returns
// one Record per request, in arrival order. It synthesizes and registers
// every distinct operand first, then fires each request at its scheduled
// offset from its own goroutine, polling the job to completion. Records
// carry the operand's GenSpec, so a recorded live run can be re-registered
// and re-issued later.
func run(ctx context.Context, client *server.Client, reqs []workload.Request, opts runOptions) ([]workload.Record, error) {
	if opts.Speed == 0 {
		opts.Speed = 1
	}
	if opts.Speed < 0 {
		return nil, fmt.Errorf("negative speed %g", opts.Speed)
	}

	// Materialize and register the distinct operands up front — synthesis
	// must not perturb the arrival timeline.
	specs, err := workload.Materialize(reqs)
	if err != nil {
		return nil, err
	}
	mats := make(map[string]*sparse.CSR, len(specs))
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, err := datasets.Synthesize(*specs[name])
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", name, err)
		}
		if _, err := client.Register(ctx, name, m); err != nil && !alreadyRegistered(err) {
			return nil, fmt.Errorf("registering %s: %w", name, err)
		}
		mats[name] = m
	}

	// Each request writes only its own slot, and arrivals are stamped in
	// firing order, so the records come out arrival-ordered.
	records := make([]workload.Record, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		req := &reqs[i]
		at := time.Duration(float64(time.Second) * req.AtSeconds / opts.Speed)
		select {
		case <-ctx.Done():
			wg.Wait()
			return nil, ctx.Err()
		case <-time.After(time.Until(start.Add(at))):
		}
		arrival := time.Since(start).Seconds()
		wg.Add(1)
		go func() {
			defer wg.Done()
			records[i] = issueRequest(ctx, client, req, mats[req.MatrixName], arrival, opts.RequestTimeout)
			records[i].Seq = i
		}()
	}
	wg.Wait()
	return records, nil
}

// alreadyRegistered reports a registration name conflict (409). Workload
// matrix names encode their synthesis spec, so an existing entry is the
// same matrix, registered by an earlier run.
func alreadyRegistered(err error) bool {
	var se *server.StatusError
	return errors.As(err, &se) && se.Code == http.StatusConflict
}

// issueRequest submits one request, polls it to a terminal state, and builds
// its record.
func issueRequest(ctx context.Context, client *server.Client, req *workload.Request, m *sparse.CSR, arrival float64, timeout time.Duration) workload.Record {
	gen := req.Gen
	rec := workload.Record{
		ArrivalSeconds: workload.Round6(arrival),
		Class:          req.Class,
		Kind:           "multiply",
		Algorithm:      req.Algorithm,
		GPU:            req.GPU,
		Gen:            &gen,
	}
	if m != nil {
		rec.FpA = fmt.Sprintf("%016x", m.StructureFingerprint())
		rec.Rows, rec.Cols, rec.NNZ = m.Rows, m.Cols, m.NNZ()
	}
	accepted, err := client.Multiply(ctx, &server.MultiplyRequest{
		A:             server.Operand{Name: req.MatrixName},
		Class:         req.Class,
		Algorithm:     req.Algorithm,
		GPU:           req.GPU,
		Profile:       true,
		TimeoutMillis: timeout.Milliseconds(),
	})
	if err != nil {
		if server.IsRejected(err) {
			rec.Outcome = workload.OutcomeRejected
		} else {
			rec.Outcome = workload.FailedOutcome(server.FailClient)
		}
		return rec
	}
	st, err := client.Wait(ctx, accepted.Job, pollInterval)
	if err != nil {
		rec.Outcome = workload.FailedOutcome(server.FailInternal)
		return rec
	}
	if st.State != server.StateDone || st.Result == nil {
		kind := st.ErrorKind
		if kind == "" {
			kind = server.FailInternal
		}
		rec.Outcome = workload.FailedOutcome(kind)
		return rec
	}
	server.FillDoneRecord(&rec, st.Result, st.Result.Profile)
	return rec
}
