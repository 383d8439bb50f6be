package bench

import (
	"fmt"
	"sync"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/sparse"
)

// The evaluation reads the same simulated runs from many angles: Fig 9 is
// Fig 8's grid in GFLOPS, Fig 15's TITAN Xp row is Fig 8's average, and
// the technique studies share their baselines. A memo holds each run's
// result once per Config, so experiments run with one Config simulate
// every (dataset, device, algorithm, tuning) product at most once.

// run is one product an experiment asks for: an algorithm on a device,
// with the Block Reorganizer's pass parameters (zero for the other
// algorithms).
type run struct {
	alg    kernels.Algorithm
	dev    gpusim.Config
	params core.Params
}

// lineup returns the evaluation line-up on dev, in figure order.
// Row-product leads it, so a line-up's first result is the baseline.
func lineup(dev gpusim.Config) []run {
	algs := kernels.All()
	runs := make([]run, len(algs))
	for i, alg := range algs {
		runs[i] = run{alg: alg, dev: dev}
	}
	return runs
}

// untransformed turns every technique off: the Block Reorganizer's plain
// outer-product expansion, the baseline its technique studies measure
// against.
var untransformed = core.Params{DisableSplit: true, DisableGather: true, DisableLimit: true}

// reorg is a Block Reorganizer run with the given pass parameters.
func reorg(dev gpusim.Config, p core.Params) run {
	return run{alg: kernels.Reorganizer{}, dev: dev, params: p}
}

// runKey identifies a result. Its parameters are normalized, so tunings
// that spell a default differently (LimitFactor 0 and 4, Alpha 0 and 10)
// share one entry.
type runKey struct {
	dataset, device, alg string
	params               core.Params
}

// result is what the experiments read of a product. It never keeps the
// product's matrix, plan or symbolic analysis, so none of them outlives
// its dataset.
type result struct {
	report    *gpusim.Report
	flops     int64
	planStats *core.PlanStats
}

func (r result) seconds() float64 { return r.report.TotalSeconds() }

// dataset names one operand pair; load materializes it on a miss.
type dataset struct {
	name string
	load func() (a, b *sparse.CSR, err error)
}

// square is the A² product of a Table II dataset, generated through the
// config's disk cache.
func (c Config) square(spec datasets.Spec) dataset {
	return dataset{name: spec.Name, load: func() (*sparse.CSR, *sparse.CSR, error) {
		m, err := c.generate(spec)
		return m, m, err
	}}
}

// squares maps Table II specs to their A² datasets.
func (c Config) squares(specs []datasets.Spec) []dataset {
	ds := make([]dataset, len(specs))
	for i, s := range specs {
		ds[i] = c.square(s)
	}
	return ds
}

// memo is one Config's store of simulated results.
type memo struct {
	mu      sync.Mutex
	results map[runKey]result
	misses  int
}

// get returns the results of runs on d, in order. Only runs the memo has
// not seen are simulated; d is loaded and precomputed once, and only if
// one of them misses.
func (c Config) get(d dataset, runs ...run) ([]result, error) {
	out := make([]result, len(runs))
	var a, b *sparse.CSR
	var pc *kernels.Precomputed
	for i, r := range runs {
		p, err := r.params.Normalize()
		if err != nil {
			return nil, err
		}
		k := runKey{dataset: d.name, device: r.dev.Name, alg: r.alg.Name(), params: p}
		c.memo.mu.Lock()
		res, ok := c.memo.results[k]
		c.memo.mu.Unlock()
		if ok {
			out[i] = res
			continue
		}
		if pc == nil {
			if a, b, err = d.load(); err != nil {
				return nil, err
			}
			if pc, err = kernels.PrecomputeOn(a, b, c.ex); err != nil {
				return nil, err
			}
		}
		prod, err := r.alg.Multiply(a, b, kernels.Options{
			Device: r.dev, Core: r.params, SkipValues: true,
			Pre: pc, Exec: c.ex, Accumulator: c.Accum,
		})
		if err != nil {
			return nil, fmt.Errorf("%s on %s (%s): %w", r.alg.Name(), d.name, r.dev.Name, err)
		}
		out[i] = result{report: prod.Report, flops: prod.Flops, planStats: prod.PlanStats}
		c.memo.mu.Lock()
		c.memo.results[k] = out[i]
		c.memo.misses++
		c.memo.mu.Unlock()
	}
	return out, nil
}

// grid returns the results of the same runs on every dataset, in dataset
// order. Datasets run one at a time, so at most one dataset's operands
// are held.
func (c Config) grid(ds []dataset, runs ...run) ([][]result, error) {
	out := make([][]result, len(ds))
	for i, d := range ds {
		var err error
		if out[i], err = c.get(d, runs...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// speedups returns each result's speedup over the first, the baseline:
// row-product in a line-up.
func speedups(line []result) []float64 {
	base := line[0].seconds()
	out := make([]float64, len(line))
	for i, r := range line {
		out[i] = base / r.seconds()
	}
	return out
}

// means returns the per-column averages of rows, summed in row order.
func means(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	sums := make([]float64, len(rows[0]))
	for _, row := range rows {
		for i, v := range row {
			sums[i] += v
		}
	}
	for i := range sums {
		sums[i] /= float64(len(rows))
	}
	return sums
}

// f2Row is a table row of vals to two decimals, after the lead cells.
func f2Row(vals []float64, lead ...string) []string {
	for _, v := range vals {
		lead = append(lead, tableio.F2(v))
	}
	return lead
}
