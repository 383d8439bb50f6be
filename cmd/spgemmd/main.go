// Command spgemmd serves sparse matrix multiplication over HTTP: a worker
// pool of simulated GPUs, a registry of named operand matrices, and a
// structure-keyed plan cache that reuses the Block Reorganizer's
// preprocessing across requests.
//
//	spgemmd -addr :8447 -data ./matrices -workers 4
//	spgemmd -demo                       # serve generated demo networks
//	spgemmd -demo -cluster 4 -route affinity
//	                                    # shard into 4 routed instances
//	spgemmd -backend http://n1:8447,http://n2:8447
//	                                    # standalone router over remote spgemmds
//
// With -cluster N the process shards into N instances — each with its own
// queue, workers and plan cache — behind a structure-affinity router (see
// docs/CLUSTER.md). With -backend the process runs only the router,
// proxying to already-running spgemmds.
//
// SIGINT/SIGTERM drains gracefully: new work is refused while every
// admitted job runs to completion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/server/cluster"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func main() {
	var (
		addr       = flag.String("addr", ":8447", "listen address")
		dataDir    = flag.String("data", "", "directory of *.mtx / *.csrs matrices to register at startup")
		demo       = flag.Bool("demo", false, "register generated power-law demo networks")
		workers    = flag.Int("workers", 2, "worker pool size (one simulated device each)")
		gpus       = flag.String("gpus", "", "comma-separated device names assigned to workers round-robin (default TITAN Xp)")
		queue      = flag.Int("queue", 64, "admission queue depth (429 beyond it)")
		cacheSize  = flag.Int("plan-cache", 128, "plan cache capacity (entries)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-job deadline")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "ceiling on client-requested deadlines")
		drainWait  = flag.Duration("drain", time.Minute, "how long shutdown waits for in-flight jobs")
		paranoid   = flag.Bool("paranoid", false, "run every job with the deep sanitizer layer")
		traceOut   = flag.String("trace-out", "", "append a JSONL request trace to this file (scorable with spgemmload score)")

		clusterN   = flag.Int("cluster", 0, "shard into N in-process instances behind a routing front-end (0: single instance)")
		route      = flag.String("route", cluster.PolicyAffinity, "cluster routing policy: "+strings.Join(cluster.Policies(), ", "))
		backends   = flag.String("backend", "", "comma-separated spgemmd base URLs: run as a standalone router over them")
		admitRate  = flag.Float64("admit-rate", 0, "cluster-wide admission rate limit in req/s (0: unlimited)")
		admitBurst = flag.Int("admit-burst", 0, "admission token-bucket burst (default: admit-rate rounded up)")
	)
	flag.Parse()

	cfg := server.Config{
		Workers:        *workers,
		GPUs:           splitList(*gpus),
		QueueDepth:     *queue,
		PlanCacheSize:  *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Paranoid:       *paranoid,
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spgemmd: opening trace file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.RequestTrace = f
	}
	opts := cluster.Options{Policy: *route, AdmitRate: *admitRate, AdmitBurst: *admitBurst}
	if err := run(cfg, opts, *addr, *dataDir, *demo, *drainWait, *clusterN, splitList(*backends)); err != nil {
		fmt.Fprintf(os.Stderr, "spgemmd: %v\n", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, g := range strings.Split(s, ",") {
		if g = strings.TrimSpace(g); g != "" {
			out = append(out, g)
		}
	}
	return out
}

// buildRegistry loads the startup matrices.
func buildRegistry(dataDir string, demo bool) (*server.Registry, error) {
	reg := server.NewRegistry()
	if dataDir != "" {
		n, err := reg.LoadDir(dataDir)
		if err != nil {
			return nil, err
		}
		fmt.Printf("registered %d matrices from %s\n", n, dataDir)
	}
	if demo {
		if err := registerDemo(reg); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// registerDemo populates the registry with small generated power-law
// networks so the service is usable with no data directory.
func registerDemo(reg *server.Registry) error {
	specs := []struct {
		name   string
		n, nnz int
		seed   uint64
	}{
		{"demo-small", 1_000, 15_000, 1},
		{"demo-medium", 5_000, 80_000, 2},
		{"demo-large", 20_000, 350_000, 3},
	}
	for _, sp := range specs {
		m, err := rmat.PowerLaw(sp.n, sp.nnz, 2.1, sp.seed)
		if err != nil {
			return fmt.Errorf("generating %s: %w", sp.name, err)
		}
		if _, err := reg.Register(sp.name, m); err != nil {
			return err
		}
		fmt.Printf("registered %s: %dx%d, nnz=%d\n", sp.name, m.Rows, m.Cols, m.NNZ())
	}
	return nil
}

// service is what run serves and drains: a single server, an in-process
// cluster, or a standalone router — all expose the same two methods.
type service interface {
	Handler() http.Handler
	Shutdown(ctx context.Context) error
}

// buildService assembles the serving topology the flags selected.
func buildService(cfg server.Config, opts cluster.Options, dataDir string, demo bool, clusterN int, backends []string) (service, string, error) {
	if clusterN > 0 && len(backends) > 0 {
		return nil, "", fmt.Errorf("-cluster and -backend are mutually exclusive: shard in-process or route to remote instances, not both")
	}
	switch {
	case len(backends) > 0:
		// Standalone router: no local workers, no local data loading — the
		// backends own their registries; uploads through the router are
		// broadcast to every backend.
		instances := make([]*cluster.Instance, 0, len(backends))
		for i, url := range backends {
			inst, err := cluster.NewHTTPInstance(fmt.Sprintf("i%d", i), url, nil)
			if err != nil {
				return nil, "", err
			}
			instances = append(instances, inst)
		}
		c, err := cluster.New(instances, nil, opts)
		if err != nil {
			return nil, "", err
		}
		banner := fmt.Sprintf("routing to %d backends, policy %s", len(backends), c.PolicyName())
		return c, banner, nil
	case clusterN > 0:
		reg, err := buildRegistry(dataDir, demo)
		if err != nil {
			return nil, "", err
		}
		c, err := cluster.NewInProcess(clusterN, cfg, reg, opts)
		if err != nil {
			return nil, "", err
		}
		banner := fmt.Sprintf("%d in-process instances (%d workers each, queue %d, plan cache %d), policy %s",
			clusterN, cfg.Workers, cfg.QueueDepth, cfg.PlanCacheSize, c.PolicyName())
		return c, banner, nil
	default:
		reg, err := buildRegistry(dataDir, demo)
		if err != nil {
			return nil, "", err
		}
		s, err := server.New(cfg, reg)
		if err != nil {
			return nil, "", err
		}
		s.Start()
		banner := fmt.Sprintf("%d workers, queue %d, plan cache %d",
			cfg.Workers, cfg.QueueDepth, cfg.PlanCacheSize)
		return s, banner, nil
	}
}

// run brings the service up and blocks until a termination signal drains it.
func run(cfg server.Config, opts cluster.Options, addr, dataDir string, demo bool, drainWait time.Duration, clusterN int, backends []string) error {
	svc, banner, err := buildService(cfg, opts, dataDir, demo, clusterN, backends)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("spgemmd listening on %s (%s)\n", ln.Addr(), banner)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()

	fmt.Println("spgemmd: draining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Println("spgemmd: drained, bye")
	return nil
}
