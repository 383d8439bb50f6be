package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/ooc"
	"github.com/blockreorg/blockreorg/pipeline"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// analytics: a closed loop of rounds over one symmetrized R-MAT graph. Each
// round clusters the graph with pipeline.MCL in memory, then runs a k-hop
// collapse power chain (M ← M·A, then every value set to 1) through a fresh
// out-of-core engine whose budget forces spill and merge on every multiply,
// then the same chain in memory as its reference. The graph is fixed; the
// seed relabels its vertices, so every seed poses the same problem in a
// different order.

// analyticsGraphSeed fixes the R-MAT graph the seed relabels.
const analyticsGraphSeed = 0x6d636c

type analyticsEnv struct{ g *sparse.CSR }

func (*analyticsEnv) close() {}

// setUpAnalytics builds the relabelled graph and warms the host engine and
// the heap with one clustering of it.
func setUpAnalytics(cfg Config) (*analyticsEnv, error) {
	s := cfg.Sizes
	m, err := rmat.Generate(s.GraphNodes, s.GraphEdges, rmat.Default, analyticsGraphSeed)
	if err != nil {
		return nil, err
	}
	sym, err := m.Symmetrize()
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewPCG(cfg.Seed, 0x616e616c)).Perm(sym.Rows)
	coo := sparse.NewCOO(sym.Rows, sym.Cols, sym.NNZ())
	for i := 0; i < sym.Rows; i++ {
		idx, val := sym.Row(i)
		for k, j := range idx {
			coo.Add(perm[i], perm[j], val[k])
		}
	}
	g := coo.ToCSR()
	if _, err := pipeline.MCL(context.Background(), g, pipeline.MCLOptions{}, pipeline.Options{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &analyticsEnv{g: g}, nil
}

// oocPower runs the collapse power chain to the k-th power through a fresh
// out-of-core engine under budget, computing exactly what
// pipeline.PowerIterate with PowerOptions.Collapse computes in memory.
func oocPower(g *sparse.CSR, k int, budget int64, dir string, rec *blockreorg.Trace) (*sparse.CSR, ooc.Stats, error) {
	eng, err := ooc.New(ooc.Options{Budget: budget, Dir: dir, Trace: rec})
	if err != nil {
		return nil, ooc.Stats{}, err
	}
	base := g.Clone()
	base.Fill(1)
	m := base
	for i := 1; i < k; i++ {
		if m, err = eng.Multiply(m, base); err != nil {
			_ = eng.Close() // the multiply's error is the one to report
			return nil, ooc.Stats{}, err
		}
		m.Fill(1)
	}
	return m, eng.Stats(), eng.Close()
}

// analyticsRound is what one round measured.
type analyticsRound struct {
	record          bool
	mclT, oocT, mem cost
	mcl             *pipeline.MCLResult
	ooc             ooc.Stats
}

func runAnalytics(cfg Config, tr *tracer, out io.Writer) (*outcome, error) {
	s := cfg.Sizes
	env, setupS, err := setUp(cfg.Setups, func() (*analyticsEnv, error) { return setUpAnalytics(cfg) })
	if err != nil {
		return nil, err
	}
	o := &outcome{setupS: setupS, bypassed: []string{"serve", "cluster"}}
	spill := filepath.Join(cfg.WorkDir, "spill-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(spill)
	ctx := context.Background()

	// The traced run alternates rounds with and without the program's phase
	// recorder, so one process measures the recorder's overhead.
	minRounds := 1
	if cfg.Traced {
		minRounds = 2
	}
	var rounds []analyticsRound
	var converged, identical, sameLimit int
	var limit uint64
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		r := analyticsRound{record: cfg.Traced && n%2 == 1}
		recorder := func() *blockreorg.Trace {
			if r.record {
				return blockreorg.NewTrace()
			}
			return nil
		}
		id := "round" + strconv.Itoa(n)
		root := tr.begin(0, "round", id)
		var chain *sparse.CSR
		var mem *pipeline.Result
		r.mclT, err = tr.timeOp(root, "pipeline.MCL", id, func() (err error) {
			r.mcl, err = pipeline.MCL(ctx, env.g, pipeline.MCLOptions{}, pipeline.Options{Trace: recorder()})
			return err
		})
		if err == nil {
			r.oocT, err = tr.timeOp(root, "ooc.Engine.Multiply", id, func() (err error) {
				chain, r.ooc, err = oocPower(env.g, s.PowerK, s.OOCBudget, spill, recorder())
				return err
			})
		}
		if err == nil {
			r.mem, err = tr.timeCall(root, "pipeline.PowerIterate", id, func() (err error) {
				mem, err = pipeline.PowerIterate(ctx, env.g, s.PowerK, pipeline.PowerOptions{Collapse: true}, pipeline.Options{})
				return err
			})
		}
		tr.end(root)
		o.attempted += 3
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		if r.mcl.Converged {
			converged++
		}
		if checksum(chain) == checksum(mem.M) {
			identical++
		}
		if sum := checksum(r.mcl.M); n == 0 || sum == limit {
			limit = sum
			sameLimit++
		}
		rounds = append(rounds, r)
	}
	o.checks.expect(out, converged == len(rounds), "MCL converged in every round (%d of %d)", converged, len(rounds))
	o.checks.expect(out, sameLimit == len(rounds), "MCL reached the same limit matrix in every round")
	o.checks.expect(out, identical == len(rounds),
		"out-of-core power chain is byte-identical to pipeline.PowerIterate in every round (%d of %d)", identical, len(rounds))

	var mclT, chainT []cost
	var mem, recMCL, recChain, iters []float64
	var plain []analyticsRound
	for _, r := range rounds {
		if r.record {
			recMCL = append(recMCL, r.mclT.wallMS)
			recChain = append(recChain, r.oocT.wallMS)
			continue
		}
		plain = append(plain, r)
		mclT = append(mclT, r.mclT)
		chainT = append(chainT, r.oocT)
		mem = append(mem, r.mem.wallMS)
		for _, it := range r.mcl.Iters {
			iters = append(iters, it.Seconds*1e3)
		}
	}
	mcl, chain := wallMS(mclT), wallMS(chainT)
	o.opCPUMS = geomean([]float64{median(refCPU(mclT)), median(refCPU(chainT))})
	o.rawCPUMS = geomean([]float64{median(cpuMS(mclT)), median(cpuMS(chainT))})
	o.refMS = median(append(refMS(mclT), refMS(chainT)...))
	last := plain[len(plain)-1]
	info(out, "rounds", float64(len(rounds)), "count")
	info(out, "mcl_solve_s", median(mcl)/1e3, "s")
	info(out, "ooc_power_s", median(chain)/1e3, "s")
	info(out, "power_in_memory_s", median(mem)/1e3, "s")
	info(out, "mcl_clusters", float64(last.mcl.NumClusters), "count")

	if cfg.Traced {
		stat := func(f func(ooc.Stats) float64) float64 {
			xs := make([]float64, len(plain))
			for i, r := range plain {
				xs[i] = f(r.ooc)
			}
			return median(xs)
		}
		mclRes := last.mcl
		oocSt := last.ooc
		o.layers = map[string]float64{
			"latency_p50_ms":          geomean([]float64{median(mcl), median(chain)}),
			"pipeline.mcl_solve_s":    median(mcl) / 1e3,
			"pipeline.mcl_iterations": float64(mclRes.Iterations),
			"pipeline.plan_hit_share": share(float64(mclRes.PlanHits), float64(mclRes.PlanHits+mclRes.PlanMisses)),
			"pipeline.iter_p50_ms":    median(iters),
			"ooc.power_s":             median(chain) / 1e3,
			"ooc.tiles":               float64(oocSt.Tiles),
			"ooc.plan_hit_share":      share(float64(oocSt.PlanHits), float64(oocSt.PlanHits+oocSt.PlanMisses)),
			"ooc.loaded_mb":           float64(oocSt.BytesLoaded) / 1e6,
			"ooc.spilled_mb":          float64(oocSt.BytesSpilled) / 1e6,
			"ooc.peak_mb":             float64(oocSt.PeakBytes) / 1e6,
			"ooc.load_s":              stat(func(st ooc.Stats) float64 { return st.LoadSeconds }),
			"ooc.reshard_s":           stat(func(st ooc.Stats) float64 { return st.ReshardSeconds }),
			"ooc.multiply_s":          stat(func(st ooc.Stats) float64 { return st.MultiplySeconds }),
			"ooc.spill_s":             stat(func(st ooc.Stats) float64 { return st.SpillSeconds }),
			"ooc.merge_s":             stat(func(st ooc.Stats) float64 { return st.MergeSeconds }),
			"ooc.slowdown":            share(median(chain), median(mem)),
			"trace.overhead": overhead(geomean([]float64{median(recMCL), median(recChain)}),
				geomean([]float64{median(mcl), median(chain)})),
		}
	}
	loops, err := sparse.Add(env.g, sparse.Identity(env.g.Rows))
	if err != nil {
		return nil, err
	}
	o.samples = []*sparse.CSR{loops, env.g}
	return o, nil
}
