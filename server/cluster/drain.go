package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/blockreorg/blockreorg/server"
)

// InstanceStatus is one instance's row in the cluster status report.
type InstanceStatus struct {
	Name          string `json:"name"`
	Kind          string `json:"kind"`  // "in-process" | "http"
	State         string `json:"state"` // "up" | "cordoned"
	Outstanding   int    `json:"outstanding"`
	PendingWork   int64  `json:"pending_work"`
	QueueDepth    int    `json:"queue_depth"`    // -1 when unknown (http backends)
	QueueCapacity int    `json:"queue_capacity"` // -1 when unknown
}

// ClusterStatus is the GET /cluster/status document.
type ClusterStatus struct {
	Policy            string           `json:"policy"`
	Draining          bool             `json:"draining"`
	Instances         []InstanceStatus `json:"instances"`
	RoutedTotal       uint64           `json:"routed_total"`
	AffinityHits      uint64           `json:"affinity_hits"`
	AffinityEntries   int              `json:"affinity_entries"`
	AdmissionRejected uint64           `json:"admission_rejected"`
	TrackedJobs       int              `json:"tracked_jobs"`
}

// Status snapshots the cluster: per-instance load and cordon state plus
// the router's routing and admission counters.
func (rt *Router) Status() ClusterStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.pruneLocked()
	st := ClusterStatus{
		Policy:            rt.policy.Name(),
		Draining:          rt.draining,
		RoutedTotal:       rt.routedHits + rt.routedMisses,
		AffinityHits:      rt.routedHits,
		AdmissionRejected: rt.admitRejected,
		TrackedJobs:       len(rt.jobs),
	}
	if ap, ok := rt.policy.(interface{ Entries() int }); ok {
		st.AffinityEntries = ap.Entries()
	}
	for i, inst := range rt.instances {
		row := InstanceStatus{
			Name:        inst.name,
			Kind:        "http",
			State:       "up",
			Outstanding: rt.states[i].outstanding,
			PendingWork: rt.states[i].pendingWork,
			QueueDepth:  -1, QueueCapacity: -1,
		}
		if inst.srv != nil {
			row.Kind = "in-process"
			row.QueueDepth, row.QueueCapacity = inst.srv.QueueStats()
		}
		if rt.states[i].cordoned {
			row.State = "cordoned"
		}
		st.Instances = append(st.Instances, row)
	}
	return st
}

// setCordon flips one instance's cordon flag. Cordoned instances keep
// serving polls for jobs they already hold but receive no new routes.
func (rt *Router) setCordon(idx int, cordoned bool) {
	rt.mu.Lock()
	rt.states[idx].cordoned = cordoned
	rt.mu.Unlock()
}

// outstandingJobs lists the prefixed ids of the tracked jobs routed to one
// instance.
func (rt *Router) outstandingJobs(idx int) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.pruneLocked()
	var ids []string
	for id, j := range rt.jobs {
		if j.instance == idx {
			ids = append(ids, id)
		}
	}
	return ids
}

// instanceIdle reports whether an in-process instance's queue is empty
// (always true for http backends, whose queues the router cannot see).
func (rt *Router) instanceIdle(idx int) bool {
	srv := rt.instances[idx].srv
	if srv == nil {
		return true
	}
	depth, _ := srv.QueueStats()
	return depth == 0
}

// pollJob forwards one poll for a prefixed job id and settles the
// router's accounting if the job is terminal. Errors are swallowed: the
// drain loop retries until its deadline.
func (rt *Router) pollJob(ctx context.Context, id string) {
	name, rest, ok := cutJobID(id)
	if !ok {
		rt.finishJob(id) // malformed entry — drop it rather than wedge drain
		return
	}
	idx := rt.instanceIndex(name)
	if idx < 0 {
		rt.finishJob(id)
		return
	}
	resp, err := rt.forward(ctx, idx, http.MethodGet, "/v1/jobs/"+rest, nil)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		rt.finishJob(id) // the instance forgot the job; stop waiting on it
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return
	}
	if st.State == server.StateDone || st.State == server.StateFailed {
		rt.finishJob(id)
	}
}

// DrainInstance cordons one instance and waits until it is idle: no
// tracked routed jobs and (for in-process backends) an empty admission
// queue. The router polls the instance's jobs itself, so drain completes
// even when no client is polling. The instance stays cordoned on return —
// including on error — so the operator can act on it; Uncordon returns it
// to the rotation. Jobs submitted to an instance directly, bypassing the
// router, are invisible here and are not waited for.
func (rt *Router) DrainInstance(ctx context.Context, name string) error {
	idx := rt.instanceIndex(name)
	if idx < 0 {
		return fmt.Errorf("cluster: unknown instance %q", name)
	}
	return rt.drainIndex(ctx, idx)
}

func (rt *Router) drainIndex(ctx context.Context, idx int) error {
	rt.setCordon(idx, true)
	for {
		ids := rt.outstandingJobs(idx)
		if len(ids) == 0 && rt.instanceIdle(idx) {
			return nil
		}
		for _, id := range ids {
			rt.pollJob(ctx, id)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// RollingDrain drains every instance in turn — cordon, wait idle,
// uncordon — so the whole fleet is flushed with at most one instance out
// of rotation at a time. On error the failing instance is left cordoned
// and the remainder untouched.
func (rt *Router) RollingDrain(ctx context.Context) error {
	for i, inst := range rt.instances {
		if err := rt.drainIndex(ctx, i); err != nil {
			return fmt.Errorf("cluster: rolling drain stalled at instance %s: %w", inst.name, err)
		}
		rt.setCordon(i, false)
	}
	return nil
}

// Uncordon returns a cordoned instance to the routing rotation.
func (rt *Router) Uncordon(name string) error {
	idx := rt.instanceIndex(name)
	if idx < 0 {
		return fmt.Errorf("cluster: unknown instance %q", name)
	}
	rt.setCordon(idx, false)
	return nil
}

// cutJobID splits a prefixed job id into instance name and raw id.
func cutJobID(id string) (name, raw string, ok bool) {
	name, raw, ok = strings.Cut(id, ":")
	if !ok || name == "" || raw == "" {
		return "", "", false
	}
	return name, raw, true
}

// drainRequest is the POST /cluster/drain body.
type drainRequest struct {
	Instance string  `json:"instance"`
	Rolling  bool    `json:"rolling"`
	TimeoutS float64 `json:"timeout_s"`
}

func (rt *Router) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Status())
}

func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req drainRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Rolling == (req.Instance != "") {
		writeError(w, http.StatusBadRequest, "specify exactly one of \"instance\" or \"rolling\": true")
		return
	}
	timeout := 30 * time.Second
	if req.TimeoutS > 0 {
		timeout = time.Duration(req.TimeoutS * float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	var err error
	if req.Rolling {
		err = rt.RollingDrain(ctx)
	} else {
		err = rt.DrainInstance(ctx, req.Instance)
	}
	if err != nil {
		status := http.StatusGatewayTimeout
		if rt.instanceIndex(req.Instance) < 0 && !req.Rolling {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"drained": req.Instance,
		"rolling": req.Rolling,
		"status":  rt.Status(),
	})
}

// uncordonRequest is the POST /cluster/uncordon body.
type uncordonRequest struct {
	Instance string `json:"instance"`
}

func (rt *Router) handleUncordon(w http.ResponseWriter, r *http.Request) {
	var req uncordonRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := rt.Uncordon(req.Instance); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"uncordoned": req.Instance})
}
