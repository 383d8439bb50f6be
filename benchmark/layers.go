package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

// minLayerRounds is the fewest rounds the decomposition makes, so every
// per-call median has at least three samples.
const minLayerRounds = 3

// decompose times each layer of a Block Reorganizer multiply from outside,
// by calling the layer's public entry point on the workload's own operands:
// the symbolic sweeps, the numeric merge under each accumulator, the
// precalculation, each planning stage, the simulation of a bound plan, the
// host execution of the plan, the rebind, and the facade on a plan-cache
// miss and hit. Every operand is squared. It makes rounds until budget has
// passed and at least minLayerRounds are done; a metric is the per-call
// median of the process's CPU time, summed over the operands, because the
// shared host's load moves wall time between one layer's calls and the
// next's.
func decompose(ops []*sparse.CSR, budget time.Duration, tr *tracer) (map[string]float64, error) {
	dev, err := gpusim.ByName(string(blockreorg.TitanXp))
	if err != nil {
		return nil, err
	}
	params, err := core.Params{NumSMs: dev.NumSMs}.Normalize()
	if err != nil {
		return nil, err
	}
	copies := make([]*sparse.CSR, len(ops))
	for k, a := range ops {
		copies[k] = a.Clone()
	}
	samples := make([]map[string][]float64, len(ops))
	for k := range samples {
		samples[k] = map[string][]float64{}
	}
	var chunks, steals, arenaHits []float64
	var flops, nnzc int64
	start := time.Now()
	for round := 0; round < minLayerRounds || time.Since(start) < budget; round++ {
		var exec parallel.Stats
		for k, a := range ops {
			req := fmt.Sprintf("layers/round%d/op%d", round, k)
			parent := tr.begin(0, "layers", req)
			d, err := decomposeOne(a, copies[k], dev, params, tr, parent, req, samples[k])
			tr.end(parent)
			if err != nil {
				return nil, fmt.Errorf("operand %d: %w", k, err)
			}
			exec.Chunks += d.exec.Chunks
			exec.Steals += d.exec.Steals
			exec.ArenaGets += d.exec.ArenaGets
			exec.ArenaNews += d.exec.ArenaNews
			if round == 0 {
				flops += d.flops
				nnzc += d.nnzc
			}
		}
		chunks = append(chunks, float64(exec.Chunks))
		steals = append(steals, float64(exec.Steals))
		if exec.ArenaGets > 0 {
			arenaHits = append(arenaHits, 1-float64(exec.ArenaNews)/float64(exec.ArenaGets))
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		for name, xs := range s {
			out[name] += median(xs)
		}
	}
	out["parallel.chunks"] = median(chunks)
	out["parallel.steals"] = median(steals)
	out["parallel.arena_hit_share"] = median(arenaHits)
	out["work.flops"] = float64(flops)
	out["work.nnz_c"] = float64(nnzc)
	covered := out["kernels.precompute_ms"] + out["core.plan_build_ms"] + out["kernels.simulate_ms"] + out["core.execute_ms"]
	out["trace.coverage"] = share(covered, out["blockreorg.multiply_miss_ms"])
	return out, nil
}

// decomposed is what one operand's round reports besides its timings.
type decomposed struct {
	exec        parallel.Stats // executor and arena activity of the facade calls
	flops, nnzc int64
}

// decomposeOne makes one round of layer calls on a, appending each timing to
// samples under its metric name. a2 is a copy of a for the rebind.
func decomposeOne(a, a2 *sparse.CSR, dev gpusim.Config, params core.Params, tr *tracer, parent int, req string, samples map[string][]float64) (*decomposed, error) {
	timed := func(metric, call string, fn func() error) error {
		c, err := tr.timeCall(parent, call, req, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", call, err)
		}
		samples[metric] = append(samples[metric], c.cpuMS)
		return nil
	}
	var rowNNZ []int
	if err := timed("sparse.intermediate_ms", "sparse.IntermediateRowNNZOn", func() error {
		_, err := sparse.IntermediateRowNNZOn(a, a, nil)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("sparse.symbolic_ms", "sparse.SymbolicRowNNZOn", func() (err error) {
		rowNNZ, err = sparse.SymbolicRowNNZOn(a, a, nil)
		return err
	}); err != nil {
		return nil, err
	}
	for _, kind := range []sparse.AccumulatorKind{sparse.AccumAuto, sparse.AccumDense, sparse.AccumHash, sparse.AccumSort} {
		if err := timed("sparse.merge_"+kind.String()+"_ms", "sparse.MultiplyConfigured/"+kind.String(), func() error {
			_, err := sparse.MultiplyConfigured(a, a, nil, nil, sparse.MulConfig{Accum: kind, RowNNZ: rowNNZ})
			return err
		}); err != nil {
			return nil, err
		}
	}

	var pc *kernels.Precomputed
	if err := timed("kernels.precompute_ms", "kernels.PrecomputeOn", func() (err error) {
		pc, err = kernels.PrecomputeOn(a, a, nil)
		return err
	}); err != nil {
		return nil, err
	}
	var cls *core.Classification
	if err := timed("core.classify_ms", "core.Classify", func() (err error) {
		cls, err = core.Classify(pc.ACSC, a, params)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("core.split_ms", "core.PlanSplit", func() error {
		_, err := core.PlanSplit(cls, pc.ACSC, params)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("core.gather_ms", "core.PlanGather", func() error {
		_, err := core.PlanGather(cls, params)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("core.limit_ms", "core.PlanLimitFrom", func() error {
		_, err := core.PlanLimitFrom(pc.RowWork, cls, params)
		return err
	}); err != nil {
		return nil, err
	}
	var plan *core.Plan
	if err := timed("core.plan_build_ms", "core.BuildPlanCached", func() (err error) {
		plan, err = core.BuildPlanCached(a, pc.ACSC, a, pc.RowWork, pc.RowNNZ, params)
		return err
	}); err != nil {
		return nil, err
	}
	// A plan bound to the operands makes the Reorganizer skip its own
	// preprocessing, and SkipValues skips the numeric product: what is left
	// is the simulation of the launch.
	if err := timed("kernels.simulate_ms", "kernels.Reorganizer.Multiply", func() error {
		_, err := kernels.Reorganizer{}.Multiply(a, a, kernels.Options{Device: dev, SkipValues: true, Plan: plan, Pre: pc})
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("core.execute_ms", "core.Plan.ExecuteOn", func() error {
		_, err := plan.ExecuteOn(nil, 0)
		return err
	}); err != nil {
		return nil, err
	}

	d := &decomposed{}
	before := parallel.ReadStats()
	var miss, hit *blockreorg.Result
	if err := timedAllocs(samples, "miss", func() error {
		return timed("blockreorg.multiply_miss_ms", "blockreorg.Multiply", func() (err error) {
			miss, err = blockreorg.Multiply(a, a, blockreorg.Options{})
			return err
		})
	}); err != nil {
		return nil, err
	}
	d.flops, d.nnzc = miss.Flops, miss.NNZC
	reusable := miss.ReusablePlan()
	miss = nil // only one product alive at a time
	var bound *blockreorg.Plan
	if err := timed("blockreorg.rebind_ms", "blockreorg.Plan.Rebind", func() (err error) {
		bound, err = reusable.Rebind(a2, a2)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timedAllocs(samples, "hit", func() error {
		return timed("blockreorg.multiply_hit_ms", "blockreorg.Multiply+Plan", func() (err error) {
			hit, err = blockreorg.Multiply(a2, a2, blockreorg.Options{Plan: bound})
			return err
		})
	}); err != nil {
		return nil, err
	}
	after := parallel.ReadStats()
	d.exec = parallel.Stats{
		Chunks:    after.Chunks - before.Chunks,
		Steals:    after.Steals - before.Steals,
		ArenaGets: after.ArenaGets - before.ArenaGets,
		ArenaNews: after.ArenaNews - before.ArenaNews,
	}
	if !hit.PlanReused {
		return nil, fmt.Errorf("the rebound plan did not drive the multiply")
	}
	return d, nil
}

// timedAllocs runs fn and records the bytes (as MB) and objects the process
// allocated meanwhile under blockreorg.alloc_mb_<kind> and
// blockreorg.allocs_<kind>.
func timedAllocs(samples map[string][]float64, kind string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	samples["blockreorg.alloc_mb_"+kind] = append(samples["blockreorg.alloc_mb_"+kind],
		float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	samples["blockreorg.allocs_"+kind] = append(samples["blockreorg.allocs_"+kind],
		float64(after.Mallocs-before.Mallocs))
	return nil
}
