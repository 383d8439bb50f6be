// Command spgemmctl is the client for spgemmd:
//
//	spgemmctl -server http://localhost:8447 matrices
//	spgemmctl upload -name wiki -file wiki.mtx
//	spgemmctl multiply -a wiki -gpu "Tesla V100" -values -o product.mtx
//	spgemmctl pipeline -a wiki -workload mcl -inflation 2
//	spgemmctl job -id j-3
//	spgemmctl metrics
//	spgemmctl cluster status
//	spgemmctl cluster drain -instance i0
//	spgemmctl cluster drain -rolling
//	spgemmctl cluster uncordon -instance i0
//
// multiply and pipeline submit the job and poll it to completion,
// printing the profile (and whether the run hit the server's plan cache;
// for pipeline jobs, the run's cross-iteration plan-cache traffic).
//
// The cluster verbs talk to a spgemmd running in cluster or router mode
// (-cluster / -backend); see docs/CLUSTER.md for the drain runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/sparse"
)

func main() {
	serverURL := flag.String("server", "http://localhost:8447", "spgemmd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "spgemmctl: missing subcommand (matrices | upload | multiply | pipeline | job | metrics | cluster)")
		os.Exit(2)
	}
	c := &client{base: strings.TrimRight(*serverURL, "/"), out: os.Stdout}
	var err error
	switch args[0] {
	case "matrices":
		err = c.matrices()
	case "upload":
		err = c.upload(args[1:])
	case "multiply":
		err = c.multiply(args[1:])
	case "pipeline":
		err = c.pipeline(args[1:])
	case "job":
		err = c.job(args[1:])
	case "metrics":
		err = c.metrics()
	case "cluster":
		err = c.cluster(args[1:])
	default:
		err = fmt.Errorf("unknown subcommand %q", args[0])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemmctl: %v\n", err)
		os.Exit(1)
	}
}

// client runs the verbs against one spgemmd instance or cluster router.
type client struct {
	base string
	out  io.Writer
}

// api is the typed wire client for c.base.
func (c *client) api() *server.Client { return &server.Client{Base: c.base} }

// pollInterval is how often multiply and pipeline poll their job.
const pollInterval = 50 * time.Millisecond

func (c *client) matrices() error {
	var listing struct {
		Matrices []struct {
			Name        string `json:"name"`
			Rows        int    `json:"rows"`
			Cols        int    `json:"cols"`
			NNZ         int    `json:"nnz"`
			Fingerprint string `json:"fingerprint"`
		} `json:"matrices"`
	}
	if err := c.api().Do(context.Background(), http.MethodGet, "/v1/matrices", nil, &listing); err != nil {
		return err
	}
	if len(listing.Matrices) == 0 {
		fmt.Fprintln(c.out, "no matrices registered")
		return nil
	}
	for _, m := range listing.Matrices {
		fmt.Fprintf(c.out, "%-20s %9dx%-9d nnz=%-10d fp=%s\n", m.Name, m.Rows, m.Cols, m.NNZ, m.Fingerprint)
	}
	return nil
}

func (c *client) upload(args []string) error {
	fs := flag.NewFlagSet("upload", flag.ContinueOnError)
	name := fs.String("name", "", "name to register the matrix under")
	file := fs.String("file", "", "matrix file: Matrix Market or segmented container")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *file == "" {
		return fmt.Errorf("upload needs -name and -file")
	}
	m, err := sparse.ReadFile(*file)
	if err != nil {
		return err
	}
	fp, err := c.api().Register(context.Background(), *name, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "registered %s (%dx%d, nnz=%d, fp=%s)\n", *name, m.Rows, m.Cols, m.NNZ(), fp)
	return nil
}

func (c *client) multiply(args []string) error {
	fs := flag.NewFlagSet("multiply", flag.ContinueOnError)
	a := fs.String("a", "", "registered name of operand A")
	b := fs.String("b", "", "registered name of operand B (default: A, computing A²)")
	alg := fs.String("alg", "", "algorithm (default Block-Reorganizer)")
	gpu := fs.String("gpu", "", "simulated device (default: the worker's)")
	accum := fs.String("accum", "", "merge accumulator: auto | dense | hash | sort (default auto)")
	values := fs.Bool("values", false, "fetch the product values")
	outFile := fs.String("o", "", "write the product to this Matrix Market file (implies -values)")
	timeout := fs.Duration("timeout", 0, "job deadline (0: server default)")
	profile := fs.Bool("profile", false, "fetch and print the host-side phase breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" {
		return fmt.Errorf("multiply needs -a")
	}
	req := server.MultiplyRequest{
		A:             server.Operand{Name: *a},
		Algorithm:     *alg,
		GPU:           *gpu,
		Accumulator:   *accum,
		ReturnValues:  *values || *outFile != "",
		Profile:       *profile,
		TimeoutMillis: timeout.Milliseconds(),
	}
	if *b != "" {
		req.B = &server.Operand{Name: *b}
	}
	ctx := context.Background()
	accepted, err := c.api().Multiply(ctx, &req)
	if err != nil {
		return err
	}
	st, err := c.wait(ctx, accepted)
	if err != nil {
		return err
	}
	c.printResult(st.Result)
	if *outFile != "" {
		if err := writeValues(*outFile, st.Result); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "product written to %s\n", *outFile)
	}
	return nil
}

// wait announces an accepted job and polls it to completion; a failed job
// is an error.
func (c *client) wait(ctx context.Context, accepted *server.Accepted) (*server.JobStatus, error) {
	fmt.Fprintf(c.out, "job %s accepted\n", accepted.Job)
	st, err := c.api().Wait(ctx, accepted.Job, pollInterval)
	if err != nil {
		return nil, err
	}
	if st.State == server.StateFailed {
		return nil, fmt.Errorf("job %s failed (%s): %s", st.ID, st.ErrorKind, st.Error)
	}
	return st, nil
}

// writeValues validates the matrix a job returned and writes it as Matrix
// Market. Nothing is written when the payload is missing or invalid.
func writeValues(path string, r *server.JobResult) error {
	if r == nil || r.Values == nil {
		return fmt.Errorf("the server returned no values to write")
	}
	m, err := r.Values.ToCSR()
	if err != nil {
		return fmt.Errorf("the server returned an invalid matrix: %w", err)
	}
	return sparse.WriteMatrixMarketFile(path, m)
}

func (c *client) pipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	a := fs.String("a", "", "registered name of the network")
	workload := fs.String("workload", "", "power | mcl | similarity")
	k := fs.Int("k", 0, "power: exponent (default 2)")
	collapse := fs.Bool("collapse", false, "power: boolean semiring")
	selfloops := fs.Bool("selfloops", false, "power: add self-loops")
	inflation := fs.Float64("inflation", 0, "mcl: inflation factor (default 2)")
	prune := fs.Float64("prune", 0, "mcl: prune tolerance (default 1e-4)")
	eps := fs.Float64("eps", 0, "mcl: chaos convergence threshold (default 1e-6)")
	maxiter := fs.Int("maxiter", 0, "mcl: iteration bound (default: server's)")
	measure := fs.String("measure", "", "similarity: common | cosine")
	mask := fs.String("mask", "", "similarity: none | existing | new")
	minscore := fs.Float64("minscore", 0, "similarity: drop scores at or below this")
	alg := fs.String("alg", "", "algorithm (default Block-Reorganizer)")
	gpu := fs.String("gpu", "", "simulated device (default: the worker's)")
	values := fs.Bool("values", false, "fetch the result matrix values")
	outFile := fs.String("o", "", "write the result to this Matrix Market file (implies -values)")
	timeout := fs.Duration("timeout", 0, "job deadline (0: server default)")
	profile := fs.Bool("profile", false, "fetch and print the host-side phase breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" || *workload == "" {
		return fmt.Errorf("pipeline needs -a and -workload")
	}
	req := server.PipelineRequest{
		A:             server.Operand{Name: *a},
		Workload:      *workload,
		K:             *k,
		Collapse:      *collapse,
		SelfLoops:     *selfloops,
		Inflation:     *inflation,
		PruneTol:      *prune,
		Epsilon:       *eps,
		MaxIterations: *maxiter,
		Measure:       *measure,
		Mask:          *mask,
		MinScore:      *minscore,
		Algorithm:     *alg,
		GPU:           *gpu,
		ReturnValues:  *values || *outFile != "",
		Profile:       *profile,
		TimeoutMillis: timeout.Milliseconds(),
	}
	ctx := context.Background()
	accepted, err := c.api().Pipeline(ctx, &req)
	if err != nil {
		return err
	}
	st, err := c.wait(ctx, accepted)
	if err != nil {
		return err
	}
	c.printPipelineResult(st.Result)
	if *outFile != "" {
		if err := writeValues(*outFile, st.Result); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "result written to %s\n", *outFile)
	}
	return nil
}

// printPipelineResult renders a completed pipeline job.
func (c *client) printPipelineResult(r *server.JobResult) {
	if r == nil || r.Pipeline == nil {
		return
	}
	p := r.Pipeline
	fmt.Fprintf(c.out, "%s on %s (%s): %dx%d, nnz=%d\n",
		p.Workload, r.Device, r.Algorithm, r.Rows, r.Cols, p.NNZ)
	for _, it := range p.Iters {
		tag := "miss"
		if it.PlanHit {
			tag = "hit"
		}
		fmt.Fprintf(c.out, "  iter %-3d nnz=%-10d plan=%-4s sim=%.6fs delta=%.3e\n",
			it.Iteration, it.NNZ, tag, it.SimSeconds, it.Delta)
	}
	fmt.Fprintf(c.out, "  iterations=%d converged=%v plan hits=%d misses=%d\n",
		p.Iterations, p.Converged, p.PlanHits, p.PlanMisses)
	if p.Workload == server.WorkloadMCL {
		fmt.Fprintf(c.out, "  clusters: %d\n", p.NumClusters)
	}
	if r.Profile != nil {
		fmt.Fprintf(c.out, "  host phases:\n")
		for _, b := range r.Profile.Phases {
			fmt.Fprintf(c.out, "    %-18s %9.3fms %5.1f%% (%d calls)\n",
				b.Phase, b.Seconds*1e3, 100*b.Share, b.Calls)
		}
	}
	fmt.Fprintf(c.out, "  wall %.3fs\n", r.WallSeconds)
}

// printResult renders a completed job's profile.
func (c *client) printResult(r *server.JobResult) {
	if r == nil {
		return
	}
	fmt.Fprintf(c.out, "%s on %s: %dx%d, nnz(C)=%d, flops=%d\n",
		r.Algorithm, r.Device, r.Rows, r.Cols, r.NNZC, r.Flops)
	fmt.Fprintf(c.out, "  simulated %.6fs (expansion %.6fs, merge %.6fs, host %.6fs) — %.2f GFLOPS\n",
		r.TotalSeconds, r.ExpansionSeconds, r.MergeSeconds, r.HostSeconds, r.GFLOPS)
	if r.PlanCacheHit {
		fmt.Fprintf(c.out, "  plan cache: HIT (precalculation skipped)\n")
	} else {
		fmt.Fprintf(c.out, "  plan cache: miss\n")
	}
	if r.Plan != nil {
		fmt.Fprintf(c.out, "  plan: %d pairs, %d dominators, %d low performers, %d split, %d combined, %d limited rows\n",
			r.Plan.Pairs, r.Plan.Dominators, r.Plan.LowPerformers, r.Plan.SplitBlocks, r.Plan.CombinedBlocks, r.Plan.LimitedRows)
	}
	if r.Profile != nil {
		fmt.Fprintf(c.out, "  host phases:\n")
		for _, b := range r.Profile.Phases {
			fmt.Fprintf(c.out, "    %-18s %9.3fms %5.1f%% (%d calls)\n",
				b.Phase, b.Seconds*1e3, 100*b.Share, b.Calls)
		}
	}
	fmt.Fprintf(c.out, "  wall %.3fs\n", r.WallSeconds)
}

func (c *client) job(args []string) error {
	fs := flag.NewFlagSet("job", flag.ContinueOnError)
	id := fs.String("id", "", "job id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("job needs -id")
	}
	st, err := c.api().Job(context.Background(), *id)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "job %s: %s\n", st.ID, st.State)
	if st.State == server.StateFailed {
		fmt.Fprintf(c.out, "  %s: %s\n", st.ErrorKind, st.Error)
	}
	c.printResult(st.Result)
	return nil
}

func (c *client) metrics() error {
	return c.api().Metrics(context.Background(), c.out)
}
