package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/server/cluster"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/workload"
)

// The serve workloads drive spgemmd in this process over loopback HTTP as
// an open loop: requests arrive on the schedule workload.Compile draws from
// the committed spec in workloads/, whatever the server's state. One
// submitter goroutine sends each request when it is due and one poller
// goroutine polls accepted jobs every pollInterval; both share one
// transport holding at most generatorConns connections. The single server
// has GOMAXPROCS workers; each cluster instance has half as many, at least
// one.
//
// A request's completion time is reconstructed as the arrival of its 202
// response plus the server-reported queue wait and execution time, and its
// latency runs from the moment it was due. Late sends therefore count, and
// the poll interval does not quantize the latency. The end-to-end metric is
// the CPU time the process spent over the whole schedule, server and load
// generator together, per completed request and in reference milliseconds;
// latency is a per-layer metric, because the shared host's load moves it
// more than the program does.

// pollInterval is the poller's cadence.
const pollInterval = 10 * time.Millisecond

// generatorConns caps the load generator's connections: one each for the
// submitter and the poller, so a poll never waits behind an upload.
const generatorConns = 2

// refInterval is how often the reference kernel gauges the host's speed
// during the measured phase; it takes about 1% of the CPU.
const refInterval = 100 * time.Millisecond

// serveMode distinguishes the two serve workloads.
type serveMode struct {
	name string
	// cluster serves through a 2-instance in-process cluster with
	// structure-affinity routing; otherwise one server takes every request.
	cluster bool
	// inline uploads each request's operand in its body; otherwise
	// requests name operands registered during set-up.
	inline bool
}

func runServeRepeat(cfg Config, tr *tracer, out io.Writer) (*outcome, error) {
	return runServe(cfg, tr, out, serveMode{name: "serve-repeat", cluster: true})
}

func runServeChurn(cfg Config, tr *tracer, out io.Writer) (*outcome, error) {
	return runServe(cfg, tr, out, serveMode{name: "serve-churn", inline: true})
}

// checkOperand is a structure the checks multiply again with its values
// returned.
type checkOperand struct {
	name string // registered name; empty for an inline operand
	m    *sparse.CSR
}

// serveEnv is a running server with its traffic encoded and ready to send.
type serveEnv struct {
	mode      serveMode
	reqs      []workload.Request
	bodies    [][]byte
	bodyBytes int
	checkOps  []checkOperand
	srv       *server.Server   // one instance (serve-churn)
	cl        *cluster.Cluster // the cluster (serve-repeat)
	httpSrv   *http.Server
	served    chan error
	base      string
	client    *http.Client
	heapBase  uint64
}

// close stops the HTTP front, then drains the server or cluster.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The client goes first: a connection it dialed but never used would
	// hold the HTTP server's shutdown for five seconds. A failed drain of a
	// finished run cannot change its results, and the process exits right
	// after the last run.
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.httpSrv != nil {
		_ = e.httpSrv.Shutdown(ctx)
		<-e.served
	}
	if e.cl != nil {
		_ = e.cl.Shutdown(ctx)
	}
	if e.srv != nil {
		_ = e.srv.Shutdown(ctx)
	}
}

// setUpServe compiles the workload's spec at the run's seed and length,
// synthesizes its operands, encodes every request body, starts the server
// behind a loopback listener, registers the named operands, and warms the
// server up.
func setUpServe(cfg Config, mode serveMode) (env *serveEnv, err error) {
	spec, err := workload.LoadSpec(filepath.Join(cfg.Sizes.Dir, "workloads", mode.name+".json"))
	if err != nil {
		return nil, err
	}
	spec.Seed = cfg.Seed
	spec.DurationSeconds = cfg.Seconds
	reqs, err := workload.Compile(spec)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s compiles to no requests in %gs", mode.name, cfg.Seconds)
	}
	env = &serveEnv{mode: mode, reqs: reqs}
	defer func() {
		if err != nil {
			env.close()
		}
	}()

	// Named operands: one synthesis per distinct structure, registered
	// below. Inline operands: one per request, encoded into its body, and
	// kept only for the requests the checks sample evenly across the run.
	named := map[string]*sparse.CSR{}
	if !mode.inline {
		pinStructures(reqs)
		gens, err := workload.Materialize(reqs)
		if err != nil {
			return nil, err
		}
		for name, g := range gens {
			m, err := datasets.Synthesize(*g)
			if err != nil {
				return nil, fmt.Errorf("synthesizing %s: %w", name, err)
			}
			named[name] = m
		}
	}
	sampled := map[int]bool{}
	for k := 0; k < cfg.Sizes.CheckSamples; k++ {
		sampled[k*len(reqs)/cfg.Sizes.CheckSamples] = true
	}
	// Bodies are independent, so set-up builds them on every P. The
	// traced run asks every other job for its phase profile, so one run
	// measures what returning the profile costs.
	env.bodies = make([][]byte, len(reqs))
	kept := make([]*sparse.CSR, len(reqs))
	errs := make([]error, len(reqs))
	parallel.Default().ForEachN(len(reqs), func(rg parallel.Range) {
		for i := rg.Lo; i < rg.Hi; i++ {
			var m *sparse.CSR
			env.bodies[i], m, errs[i] = encodeRequest(reqs[i], mode.inline, cfg.Traced && i%2 == 1)
			if sampled[i] {
				kept[i] = m
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, body := range env.bodies {
		env.bodyBytes += cap(body)
		if kept[i] != nil {
			env.checkOps = append(env.checkOps, checkOperand{m: kept[i]})
		}
	}

	nproc := runtime.GOMAXPROCS(0)
	var handler http.Handler
	if mode.cluster {
		env.cl, err = cluster.NewInProcess(2, server.Config{Workers: max(1, nproc/2)}, nil,
			cluster.Options{Policy: cluster.PolicyAffinity})
		if err != nil {
			return nil, err
		}
		handler = env.cl.Handler()
	} else {
		env.srv, err = server.New(server.Config{Workers: nproc}, nil)
		if err != nil {
			return nil, err
		}
		env.srv.Start()
		handler = env.srv.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.httpSrv = &http.Server{Handler: handler}
	env.served = make(chan error, 1)
	go func() { env.served <- env.httpSrv.Serve(ln) }()
	env.base = "http://" + ln.Addr().String()
	env.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: generatorConns, MaxIdleConnsPerHost: generatorConns}}

	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := env.register(name, named[name]); err != nil {
			return nil, err
		}
		env.checkOps = append(env.checkOps, checkOperand{name: name, m: named[name]})
	}

	// Warm-up: every registered structure once, which also fills the plan
	// caches; inline traffic gets two structures the run never sends.
	var warm []server.MultiplyRequest
	for _, name := range names {
		warm = append(warm, server.MultiplyRequest{A: server.Operand{Name: name}})
	}
	if mode.inline {
		for k := 0; k < min(2, len(reqs)); k++ {
			g := reqs[k].Gen
			g.Seed ^= 0x9e3779b97f4a7c15
			m, err := datasets.Synthesize(g)
			if err != nil {
				return nil, err
			}
			warm = append(warm, server.MultiplyRequest{A: server.Operand{COO: server.PayloadFromCSR(m)}})
		}
	}
	for _, body := range warm {
		if _, err := env.submitAndWait(body); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	env.heapBase = heapAfterGC()
	return env, nil
}

// pinStructures makes every seed name the same registered structures. The
// seed still draws the arrival times and which pool slot each request
// names, but the slots, taken in the order of the seeds the stream drew for
// them, hold the structures of generator seeds 1, 2, 3 and so on. A pool of
// eight R-MAT draws is too small to average out: over ten seeds on a host of
// two shared vCPUs, the CPU time per request read 9.5–12.0 ms with the drawn structures and
// 10.0–11.5 ms with these.
func pinStructures(reqs []workload.Request) {
	drawn := make([]uint64, len(reqs))
	for i, r := range reqs {
		drawn[i] = r.Gen.Seed
	}
	slices.Sort(drawn)
	drawn = slices.Compact(drawn)
	for i := range reqs {
		k, _ := slices.BinarySearch(drawn, reqs[i].Gen.Seed)
		reqs[i].Gen.Seed = uint64(k + 1)
		reqs[i].MatrixName = fmt.Sprintf("%s-%d", reqs[i].Class, k+1)
	}
}

// encodeRequest builds one request body: a named operand, or an inline one
// synthesized here and returned with the body.
func encodeRequest(r workload.Request, inline, profile bool) ([]byte, *sparse.CSR, error) {
	body := server.MultiplyRequest{Class: r.Class, Profile: profile}
	var m *sparse.CSR
	if inline {
		var err error
		if m, err = datasets.Synthesize(r.Gen); err != nil {
			return nil, nil, fmt.Errorf("synthesizing request %d: %w", r.Seq, err)
		}
		body.A.COO = server.PayloadFromCSR(m)
	} else {
		body.A.Name = r.MatrixName
	}
	data, err := json.Marshal(body)
	return data, m, err
}

// do sends one request (a POST when body is non-nil) and returns the
// response body, failing on any status but want.
func (e *serveEnv) do(path string, body []byte, want int) ([]byte, error) {
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = e.client.Post(e.base+path, "application/json", bytes.NewReader(body))
	} else {
		resp, err = e.client.Get(e.base + path)
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// register uploads a named operand.
func (e *serveEnv) register(name string, m *sparse.CSR) error {
	body, err := json.Marshal(map[string]any{"name": name, "coo": server.PayloadFromCSR(m)})
	if err != nil {
		return err
	}
	_, err = e.do("/v1/matrices", body, http.StatusCreated)
	return err
}

// submit posts one multiply body and returns the accepted job's URL.
func (e *serveEnv) submit(body []byte) (string, error) {
	data, err := e.do("/v1/multiply", body, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var acc struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		return "", err
	}
	return acc.URL, nil
}

// poll fetches a job's status.
func (e *serveEnv) poll(url string) (*server.JobStatus, error) {
	data, err := e.do(url, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// terminal reports whether a job has finished, either way.
func terminal(st *server.JobStatus) bool {
	return st.State == server.StateDone || st.State == server.StateFailed
}

// submitAndWait sends one request outside the measured phase and polls it
// to completion.
func (e *serveEnv) submitAndWait(req server.MultiplyRequest) (*server.JobResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	url, err := e.submit(body)
	if err != nil {
		return nil, err
	}
	giveUp := time.Now().Add(time.Minute)
	for {
		st, err := e.poll(url)
		if err != nil {
			return nil, err
		}
		if st.State == server.StateDone && st.Result != nil {
			return st.Result, nil
		}
		if terminal(st) {
			return nil, fmt.Errorf("job %s failed (%s): %s", st.ID, st.ErrorKind, st.Error)
		}
		if time.Now().After(giveUp) {
			return nil, fmt.Errorf("job %s unfinished after a minute", st.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// sample is one request of the measured phase as the load generator saw it.
type sample struct {
	due, sent, accepted time.Time
	url                 string
	err                 string
	status              *server.JobStatus
	root, job           int // spans
}

// drive sends the whole schedule and waits until every accepted job has
// finished or the give-up time has passed.
func (e *serveEnv) drive(tr *tracer) []sample {
	reqs := make([]sample, len(e.reqs))
	start := time.Now()
	for i, r := range e.reqs {
		reqs[i].due = start.Add(time.Duration(r.AtSeconds * float64(time.Second)))
	}
	giveUp := reqs[len(reqs)-1].due.Add(time.Minute)
	accepted := make(chan int, len(reqs))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(accepted)
		e.submitAll(reqs, accepted, tr)
	}()
	go func() {
		defer wg.Done()
		e.pollAll(reqs, accepted, giveUp, tr)
	}()
	wg.Wait()
	return reqs
}

// submitAll is the submitter: it sends each request when it is due and
// hands the accepted ones to the poller.
func (e *serveEnv) submitAll(reqs []sample, accepted chan<- int, tr *tracer) {
	for i := range reqs {
		r := &reqs[i]
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		id := "r" + strconv.Itoa(i)
		r.root = tr.begin(0, "request", id)
		post := tr.begin(r.root, "POST /v1/multiply", id)
		body := e.bodies[i]
		e.bodies[i] = nil // sent bodies are garbage
		r.sent = time.Now()
		url, err := e.submit(body)
		r.accepted = time.Now()
		tr.end(post)
		if err != nil {
			r.err = err.Error()
			tr.end(r.root)
			continue
		}
		r.url = url
		r.job = tr.begin(r.root, "job", id)
		accepted <- i
	}
}

// pollAll is the poller: every pollInterval it polls each accepted job
// until the job is terminal, until the submitter is done and nothing is
// pending.
func (e *serveEnv) pollAll(reqs []sample, accepted <-chan int, giveUp time.Time, tr *tracer) {
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	var pending []int
	open := true
	for open || len(pending) > 0 {
		<-tick.C
		for drained := !open; !drained; {
			select {
			case i, ok := <-accepted:
				if ok {
					pending = append(pending, i)
				} else {
					open, drained = false, true
				}
			default:
				drained = true
			}
		}
		keep := pending[:0]
		for _, i := range pending {
			r := &reqs[i]
			st, err := e.poll(r.url)
			switch {
			case err != nil:
				r.err = err.Error()
			case terminal(st):
				r.status = st
			case time.Now().After(giveUp):
				r.err = "unfinished at the give-up time"
			default:
				keep = append(keep, i)
				continue
			}
			tr.end(r.job)
			tr.end(r.root)
		}
		pending = keep
	}
}

// evictions sums the plan-cache evictions over the serving instances.
func (e *serveEnv) evictions() uint64 {
	if e.cl == nil {
		return e.srv.Cache().Stats().Evictions
	}
	var n uint64
	for _, inst := range e.cl.Instances() {
		n += inst.Server().Cache().Stats().Evictions
	}
	return n
}

// routed reads the router's cluster_routed_total counters, split by
// whether the affinity table placed the request.
func (e *serveEnv) routed() (hits, misses float64, err error) {
	data, err := e.do("/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		labels, value, ok := strings.Cut(line, "} ")
		if !ok || !strings.HasPrefix(labels, "cluster_routed_total{") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		if strings.Contains(labels, `affinity_hit="true"`) {
			hits += v
		} else {
			misses += v
		}
	}
	return hits, misses, nil
}

// heapAfterGC returns the live heap in bytes after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// phaseGroups folds the program's trace phases into the serve per-layer
// metrics, which locate a request's execution time.
var phaseGroups = map[string]string{
	"intermediate-nnz": "server.phase.precompute_share",
	"symbolic-nnz":     "server.phase.precompute_share",
	"csc-convert":      "server.phase.precompute_share",
	"classification":   "server.phase.plan_share",
	"b-splitting":      "server.phase.plan_share",
	"b-gathering":      "server.phase.plan_share",
	"b-limiting":       "server.phase.plan_share",
	"simulate":         "server.phase.simulate_share",
	"expansion":        "server.phase.execute_share",
	"scatter":          "server.phase.execute_share",
	"merge":            "server.phase.execute_share",
	"other":            "server.phase.other_share",
}

func runServe(cfg Config, tr *tracer, out io.Writer, mode serveMode) (*outcome, error) {
	env, setupS, err := setUp(cfg.Setups, func() (*serveEnv, error) { return setUpServe(cfg, mode) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	o := &outcome{setupS: setupS, bypassed: []string{"analytics"}}
	if !mode.cluster {
		o.bypassed = append(o.bypassed, "cluster")
	}
	evictBefore := env.evictions()
	var hitsBefore, missesBefore float64
	if mode.cluster {
		if hitsBefore, missesBefore, err = env.routed(); err != nil {
			return nil, err
		}
	}

	start := now()
	stopRefs := referenceSampler(refInterval)
	reqs := env.drive(tr)
	refs := stopRefs()
	phase := start.since()
	for _, ms := range refs {
		phase.cpuMS -= ms // the sampler's own work is not the requests'
	}

	bodyBytes := env.bodyBytes
	env.bodies = nil
	retainedMB := (float64(heapAfterGC()) - float64(env.heapBase) + float64(bodyBytes)) / 1e6
	evictions := env.evictions() - evictBefore

	var lat, profLat, plainLat, late, submit, wait, exec []float64
	var planHits int
	phases := map[string]float64{}
	var profWall float64
	perInstance := map[string]int{}
	for _, r := range reqs {
		o.attempted++
		late = append(late, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		if r.err != "" || r.status == nil || r.status.State != server.StateDone || r.status.Result == nil {
			o.failed++
			continue
		}
		res := r.status.Result
		done := r.accepted.Add(time.Duration((res.QueueWaitSeconds + res.WallSeconds) * float64(time.Second)))
		ms := float64(done.Sub(r.due).Nanoseconds()) / 1e6
		lat = append(lat, ms)
		submit = append(submit, float64(r.accepted.Sub(r.sent).Nanoseconds())/1e6)
		wait = append(wait, res.QueueWaitSeconds*1e3)
		exec = append(exec, res.WallSeconds*1e3)
		if res.PlanCacheHit {
			planHits++
		}
		if inst, _, ok := strings.Cut(path.Base(r.url), ":"); ok {
			perInstance[inst]++
		}
		if res.Profile == nil {
			plainLat = append(plainLat, ms)
			continue
		}
		profLat = append(profLat, ms)
		profWall += res.Profile.WallSeconds
		for _, p := range res.Profile.Phases {
			if g, ok := phaseGroups[p.Phase]; ok {
				phases[g] += p.Seconds
			}
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request completed (%d failed)", o.failed)
	}
	o.rawCPUMS = phase.cpuMS / float64(len(lat))
	o.refMS = median(refs)
	o.opCPUMS = o.rawCPUMS / o.refMS
	hitShare := float64(planHits) / float64(len(lat))
	info(out, "requests", float64(len(reqs)), "count")
	info(out, "offered_rps", float64(len(reqs))/cfg.Seconds, "1/s")
	info(out, "cpu_utilization", share(phase.cpuMS, phase.wallMS), "ratio")
	info(out, "latency_p50_ms", median(lat), "ms")
	info(out, "latency_p99_ms", percentile(lat, 0.99), "ms")
	info(out, "plan_hit_share", hitShare, "ratio")

	if cfg.Traced {
		o.layers = map[string]float64{
			"latency_p50_ms":             median(lat),
			"loadgen.late_p99_ms":        percentile(late, 0.99),
			"loadgen.latency_p99_ms":     percentile(lat, 0.99),
			"server.submit_p50_ms":       median(submit),
			"server.submit_p99_ms":       percentile(submit, 0.99),
			"server.queue_wait_p50_ms":   median(wait),
			"server.queue_wait_p99_ms":   percentile(wait, 0.99),
			"server.exec_p50_ms":         median(exec),
			"server.exec_p99_ms":         percentile(exec, 0.99),
			"server.plan_hit_share":      hitShare,
			"server.plancache_evictions": float64(evictions),
			"server.retained_mb":         retainedMB,
			"trace.overhead":             overhead(median(profLat), median(plainLat)),
		}
		for _, g := range phaseGroups {
			o.layers[g] = 0
		}
		for g, sec := range phases {
			o.layers[g] = share(sec, profWall)
		}
		if mode.cluster {
			hits, misses, err := env.routed()
			if err != nil {
				return nil, err
			}
			hits, misses = hits-hitsBefore, misses-missesBefore
			busiest := 0
			for _, n := range perInstance {
				busiest = max(busiest, n)
			}
			o.layers["cluster.affinity_hit_share"] = share(hits, hits+misses)
			o.layers["cluster.busiest_share"] = float64(busiest) / float64(len(lat))
		}
	}

	for _, op := range env.checkOps {
		if err := checkServed(env, op, &o.checks, out); err != nil {
			return nil, err
		}
		o.samples = append(o.samples, op.m)
	}
	return o, nil
}

// checkServed multiplies one structure again through the server with its
// values returned and compares the product bit for bit with the sequential
// reference.
func checkServed(env *serveEnv, op checkOperand, c *checks, out io.Writer) error {
	req := server.MultiplyRequest{ReturnValues: true}
	label := op.name
	if op.name != "" {
		req.A.Name = op.name
	} else {
		req.A.COO = server.PayloadFromCSR(op.m)
		label = fmt.Sprintf("inline %016x", op.m.StructureFingerprint())
	}
	res, err := env.submitAndWait(req)
	if err != nil {
		return fmt.Errorf("checking %s: %w", label, err)
	}
	ref, err := sparse.Multiply(op.m, op.m)
	if err != nil {
		return err
	}
	ok := res.Values != nil
	if ok {
		got, err := res.Values.ToCSR()
		ok = err == nil && checksum(got) == checksum(ref)
	}
	c.expect(out, ok, "%s %s: served product is bit-identical to sparse.Multiply", env.mode.name, label)
	return nil
}
