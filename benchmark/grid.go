package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/sparse"
)

// grid-multiply: a closed loop with one caller squaring the reduced Table II
// grid through the blockreorg.Multiply facade. Each pass visits every
// dataset once, in an order the seed permutes: a cold multiply, then a
// multiply driven by the cold run's plan rebound to a copy of the operand.
// No HTTP or queue is involved, so host execution, simulation and
// precalculation carry the time.

// gridOperand is one dataset of the grid: the matrix the cold multiply
// squares and a copy the rebound plan squares, so the hit path rebinds to
// operands the plan was not built for, as a served request does.
type gridOperand struct {
	name  string
	a, a2 *sparse.CSR
}

type gridEnv struct{ ops []gridOperand }

func (*gridEnv) close() {}

// setUpGrid synthesizes the grid and warms the host engine with one pair of
// multiplies per dataset.
func setUpGrid(s Sizes) (*gridEnv, error) {
	env := &gridEnv{}
	for _, name := range s.GridDatasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		a, err := spec.Generate(s.GridScale)
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", name, err)
		}
		env.ops = append(env.ops, gridOperand{name: name, a: a, a2: a.Clone()})
	}
	for _, op := range env.ops {
		if _, err := multiplyPair(op, false, nil, 0, ""); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// pairResult is what one cold-then-rebound pair of multiplies produced.
type pairResult struct {
	cold, hit       cost
	coldSum, hitSum uint64 // product checksums
	coldSim, hitSim float64
}

// multiplyPair squares op.a cold, then squares op.a2 with the cold run's
// plan rebound to it. The timed hit is Rebind plus Multiply: what a
// plan-cache hit costs a caller. record attaches the program's own phase
// recorder to both calls. Each product is hashed and dropped before the
// next multiply, so only one is ever alive.
func multiplyPair(op gridOperand, record bool, tr *tracer, parent int, req string) (*pairResult, error) {
	opts := func() blockreorg.Options {
		if record {
			return blockreorg.Options{Trace: blockreorg.NewTrace()}
		}
		return blockreorg.Options{}
	}
	var p pairResult
	var cold, hot *blockreorg.Result
	var err error
	p.cold, err = tr.timeOp(parent, "blockreorg.Multiply", req, func() (err error) {
		cold, err = blockreorg.Multiply(op.a, op.a, opts())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: cold multiply: %w", op.name, err)
	}
	p.coldSum, p.coldSim = checksum(cold.C), cold.TotalSeconds
	plan := cold.ReusablePlan()
	cold = nil
	p.hit, err = tr.timeOp(parent, "blockreorg.Multiply+Plan.Rebind", req, func() error {
		bound, err := plan.Rebind(op.a2, op.a2)
		if err != nil {
			return err
		}
		o := opts()
		o.Plan = bound
		hot, err = blockreorg.Multiply(op.a2, op.a2, o)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: rebound multiply: %w", op.name, err)
	}
	p.hitSum, p.hitSim = checksum(hot.C), hot.TotalSeconds
	return &p, nil
}

// gridObserved gathers what the passes saw of one dataset.
type gridObserved struct {
	miss, hit             []cost
	recMiss, recHit       []cost // the same, on passes with the program's recorder attached
	sums                  map[uint64]bool
	coldSims, hitSims     map[float64]bool
	coldSimSec, hitSimSec float64
}

func runGrid(cfg Config, tr *tracer, out io.Writer) (*outcome, error) {
	s := cfg.Sizes
	env, setupS, err := setUp(cfg.Setups, func() (*gridEnv, error) { return setUpGrid(s) })
	if err != nil {
		return nil, err
	}
	o := &outcome{setupS: setupS, bypassed: []string{"serve", "cluster", "analytics"}}
	obs := make([]gridObserved, len(env.ops))
	for k := range obs {
		obs[k] = gridObserved{sums: map[uint64]bool{}, coldSims: map[float64]bool{}, hitSims: map[float64]bool{}}
	}

	// The traced run alternates passes with and without the program's phase
	// recorder, so one process measures the recorder's overhead.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x67726964))
	minPasses := 1
	if cfg.Traced {
		minPasses = 2
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	passes := 0
	for ; passes < minPasses || time.Now().Before(deadline); passes++ {
		record := cfg.Traced && passes%2 == 1
		passSpan := tr.begin(0, "pass", "pass"+strconv.Itoa(passes))
		for _, k := range rng.Perm(len(env.ops)) {
			op := env.ops[k]
			p, err := multiplyPair(op, record, tr, passSpan, fmt.Sprintf("pass%d/%s", passes, op.name))
			o.attempted += 2
			if err != nil {
				return nil, err
			}
			ob := &obs[k]
			if record {
				ob.recMiss = append(ob.recMiss, p.cold)
				ob.recHit = append(ob.recHit, p.hit)
			} else {
				ob.miss = append(ob.miss, p.cold)
				ob.hit = append(ob.hit, p.hit)
			}
			ob.sums[p.coldSum] = true
			ob.sums[p.hitSum] = true
			ob.coldSims[p.coldSim] = true
			ob.hitSims[p.hitSim] = true
			ob.coldSimSec, ob.hitSimSec = p.coldSim, p.hitSim
		}
		tr.end(passSpan)
	}

	var missMeds, hitMeds, all, cpuAll, rawAll, recAll, refs []float64
	var simMS float64
	for k := range obs {
		ob := &obs[k]
		missMeds = append(missMeds, median(wallMS(ob.miss)))
		hitMeds = append(hitMeds, median(wallMS(ob.hit)))
		all = append(all, median(wallMS(ob.miss)), median(wallMS(ob.hit)))
		cpuAll = append(cpuAll, median(refCPU(ob.miss)), median(refCPU(ob.hit)))
		rawAll = append(rawAll, median(cpuMS(ob.miss)), median(cpuMS(ob.hit)))
		recAll = append(recAll, median(wallMS(ob.recMiss)), median(wallMS(ob.recHit)))
		refs = append(append(refs, refMS(ob.miss)...), refMS(ob.hit)...)
		simMS += ob.coldSimSec * 1e3
	}
	o.opCPUMS, o.rawCPUMS, o.refMS = geomean(cpuAll), geomean(rawAll), median(refs)
	info(out, "passes", float64(passes), "count")
	info(out, "multiply_miss_ms", geomean(missMeds), "ms")
	info(out, "multiply_hit_ms", geomean(hitMeds), "ms")
	info(out, "sim_gpu_ms", simMS, "sim_ms")
	if cfg.Traced {
		o.layers = map[string]float64{
			"latency_p50_ms": geomean(all),
			"trace.overhead": overhead(geomean(recAll), geomean(all)),
		}
	}

	if err := checkGrid(env, obs, s, &o.checks, out); err != nil {
		return nil, err
	}
	for _, op := range env.ops {
		o.samples = append(o.samples, op.a)
	}
	return o, nil
}

// gridGolden is testdata/grid_golden.json: per dataset at one scale, the
// product checksum and the simulated TITAN Xp seconds of a cold and of a
// rebound multiply. Simulated seconds are the paper's quantity and exact,
// so they are checked here rather than measured.
type gridGolden struct {
	Scale    int                        `json:"scale"`
	Datasets map[string]gridGoldenEntry `json:"datasets"`
}

type gridGoldenEntry struct {
	Checksum       string  `json:"checksum"`
	ColdSimSeconds float64 `json:"cold_sim_seconds"`
	HitSimSeconds  float64 `json:"hit_sim_seconds"`
}

// checkGrid compares every product the passes made with the sequential
// reference, and the products and simulated seconds with the committed
// goldens when they cover this scale.
func checkGrid(env *gridEnv, obs []gridObserved, s Sizes, c *checks, out io.Writer) error {
	var golden gridGolden
	data, err := os.ReadFile(filepath.Join(s.Dir, "testdata", "grid_golden.json"))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("parsing the grid goldens: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for k, op := range env.ops {
		ref, err := sparse.Multiply(op.a, op.a)
		if err != nil {
			return fmt.Errorf("%s: reference product: %w", op.name, err)
		}
		want := checksum(ref)
		ob := obs[k]
		c.expect(out, len(ob.sums) == 1 && ob.sums[want],
			"%s: every cold and rebound product is bit-identical to sparse.Multiply", op.name)
		c.expect(out, len(ob.coldSims) == 1 && len(ob.hitSims) == 1,
			"%s: simulated seconds repeat exactly across passes", op.name)
		g, ok := golden.Datasets[op.name]
		if golden.Scale != s.GridScale || !ok {
			fmt.Fprintf(out, "golden %s scale=%d checksum=%016x cold_sim_seconds=%s hit_sim_seconds=%s (not committed)\n",
				op.name, s.GridScale, want, strconv.FormatFloat(ob.coldSimSec, 'g', -1, 64),
				strconv.FormatFloat(ob.hitSimSec, 'g', -1, 64))
			continue
		}
		c.expect(out, g.Checksum == fmt.Sprintf("%016x", want), "%s: product checksum matches the golden", op.name)
		c.expect(out, g.ColdSimSeconds == ob.coldSimSec && g.HitSimSeconds == ob.hitSimSec,
			"%s: simulated seconds match the golden", op.name)
	}
	return nil
}
