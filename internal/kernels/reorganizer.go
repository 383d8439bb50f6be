package kernels

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// Reorganizer is the paper's contribution: outer-product spGEMM with the
// Block Reorganizer pass applied — dominator pairs split (B-Splitting),
// low-performer pairs gathered into packed warp blocks (B-Gathering), and
// long merge rows granted extra shared memory to cap SM co-residency
// (B-Limiting).
type Reorganizer struct{}

// Name implements Algorithm.
func (Reorganizer) Name() string { return "Block-Reorganizer" }

// Multiply implements Algorithm.
func (Reorganizer) Multiply(a, b *sparse.CSR, opts Options) (*Product, error) {
	// Plan-cache fast path: a caller-supplied plan bound to these exact
	// operands skips construction — and, below, the precalculation kernel
	// the plan's front-loaded analysis replaces. Either way the plan
	// carries the structure-only analysis the run needs (RowNNZ, NNZC and
	// Cls.TotalWork survive Rebind), so a cache hit pays nothing for it.
	plan := opts.Plan
	reused := plan.BoundTo(a, b)
	if reused {
		if err := checkInputs(a, b, opts); err != nil {
			return nil, err
		}
	} else {
		var err error
		if plan, err = BuildPlan(a, b, opts); err != nil {
			return nil, err
		}
	}
	sim, err := simFor(opts)
	if err != nil {
		return nil, err
	}
	if reused {
		// The cached-plan path skips BuildPlanTraced, so record the plan's
		// workload shape here — profiles of cache hits still carry the
		// classification populations.
		plan.RecordTrace(opts.Trace)
	}
	if paranoid(opts) {
		// Deep self-check: the transformed launch must conserve every
		// workload and mapper invariant of the classification — on the
		// reuse path this also validates the rebind.
		if err := core.VerifyPlanOnDevice(plan, opts.Device.SharedMemPerBlock); err != nil {
			return nil, err
		}
	}
	rep := &gpusim.Report{Device: opts.Device.Name}
	// Host-side preprocessing: B-Splitting runs on the CPU in the paper
	// (copying dominator vectors into A′ and building the mapper array);
	// classification and nnz precalculation run on the GPU and are billed
	// as pre-phase kernels below.
	splitNNZ := 0
	if plan.Split.APrime != nil {
		splitNNZ = plan.Split.APrime.NNZ()
	}
	rep.HostSeconds = hostSeconds(int64(splitNNZ))

	if !reused {
		// One preprocessing sweep computes both the block-wise and the
		// row-wise nnz estimates. A reused plan already carries them, so
		// the sweep is not launched — the serving layer's cache win.
		if err := runKernels(sim, rep, opts.Trace,
			precalcKernel("precalc(block+row nnz)", plan.ACSC.Cols+a.NNZ())); err != nil {
			return nil, err
		}
	}
	if err := simulatePlan(sim, rep, plan, opts); err != nil {
		return nil, err
	}

	st := plan.Stats()
	prod := &Product{Report: rep, Flops: plan.Cls.TotalWork, PlanStats: &st,
		Plan: plan, PlanReused: reused}
	if opts.SkipValues {
		prod.NNZC = plan.NNZC
		return prod, nil
	}
	c, err := hostProduct(a, b, plan, reused, opts)
	if err != nil {
		return nil, err
	}
	prod.C = c
	prod.NNZC = int64(c.NNZ())
	return prod, nil
}

// hostProduct computes the run's numeric result on the host. A reused plan
// that carries the product's structure (CIdx) only fills values into it;
// Paranoid mode also runs the accumulator engine and fails, naming the
// first row, on any bitwise difference. Any other run merges on the host
// engine, which resolves the run's accumulator (opts.Accumulator) with its
// own rule and counts the rows it merged per strategy; a plan built here
// then keeps the product's column indices, before anyone else can see the
// plan, so later runs driven by it skip the merge.
func hostProduct(a, b *sparse.CSR, plan *core.Plan, reused bool, opts Options) (*sparse.CSR, error) {
	ex := executor(opts)
	cfg := sparse.MulConfig{Accum: opts.Accumulator, RowNNZ: plan.RowNNZ, RowWork: plan.Limit.RowWork}
	if !reused || plan.CIdx == nil {
		c, err := sparse.MultiplyConfigured(a, b, ex, opts.Trace, cfg)
		if err == nil && !reused {
			plan.CIdx = append([]int(nil), c.Idx...)
		}
		return c, err
	}
	c, err := sparse.MultiplyKnown(a, b, ex, opts.Trace, plan.Limit.RowWork, plan.RowNNZ, plan.CIdx)
	if err != nil || !paranoid(opts) {
		return c, err
	}
	ref, err := sparse.MultiplyConfigured(a, b, ex, nil, cfg)
	if err != nil {
		return nil, err
	}
	if i := firstDifferingRow(c, ref); i >= 0 {
		return nil, fmt.Errorf("kernels: known-structure product row %d differs from the accumulator engine's", i)
	}
	return c, nil
}

// firstDifferingRow returns the first row whose column indices or value
// bits differ between x and y, which have the same shape, or -1 when the
// two are bitwise identical.
func firstDifferingRow(x, y *sparse.CSR) int {
	for i := 0; i < x.Rows; i++ {
		xi, xv := x.Row(i)
		yi, yv := y.Row(i)
		if !slices.Equal(xi, yi) {
			return i
		}
		for t := range xv {
			if math.Float64bits(xv[t]) != math.Float64bits(yv[t]) {
				return i
			}
		}
	}
	return -1
}

// BuildPlan runs the Block Reorganizer preprocessing for C = A×B under
// opts — the shared symbolic analysis (opts.Pre when it matches, otherwise
// fresh sweeps on the run's executor), classification, B-Splitting,
// B-Gathering and B-Limiting — and returns the plan, which keeps the
// analysis a later run needs. Every plan is built here: by a cold
// Reorganizer run, blockreorg.NewPlan and cmd/inspect. Core.NumSMs
// defaults to the device's SM count. The plan holds structure only: the
// accumulator is the choice of each run it drives.
func BuildPlan(a, b *sparse.CSR, opts Options) (*core.Plan, error) {
	if err := checkInputs(a, b, opts); err != nil {
		return nil, err
	}
	params := opts.Core
	if params.NumSMs == 0 {
		params.NumSMs = opts.Device.NumSMs
	}
	pc, err := pre(opts, a, b)
	if err != nil {
		return nil, err
	}
	return core.BuildPlanTraced(a, pc.ACSC, b, pc.RowWork, pc.RowNNZ, params, opts.Trace)
}

// simulatePlan appends the plan's expansion and merge kernel results to
// rep. Those kernels read only the plan's structure-only fields, the
// device and the accumulator the merge is priced under, so their results
// are memoized on the plan (plan.Sim) per device and accumulator: a
// rebound plan on a device and accumulator it has already run under
// appends the stored results without simulating — a plan-cache hit pays
// for no simulation at all.
// Paranoid mode simulates anyway and fails, naming the kernel, when the
// memo disagrees with the fresh run.
func simulatePlan(sim *gpusim.Simulator, rep *gpusim.Report, plan *core.Plan, opts Options) error {
	memo, hit := plan.Sim.Load(opts.Device, opts.Accumulator)
	if hit && !paranoid(opts) {
		rep.Kernels = append(rep.Kernels, memo...)
		return nil
	}
	fresh := &gpusim.Report{}
	if err := runKernels(sim, fresh, opts.Trace, planKernels(plan, opts.Accumulator)...); err != nil {
		return err
	}
	if hit {
		if err := auditSimMemo(memo, fresh.Kernels); err != nil {
			return err
		}
	} else {
		plan.Sim.Store(opts.Device, opts.Accumulator, fresh.Kernels)
	}
	rep.Kernels = append(rep.Kernels, fresh.Kernels...)
	return nil
}

// planKernels builds the expansion and merge launches of the plan, the
// merge priced under accum. The dominator pairs live in the temporary
// matrices A′/B′ and launch as their own kernel, exactly as the paper's
// implementation copies them out; everything else shares the main
// expansion launch.
func planKernels(plan *core.Plan, accum sparse.AccumulatorKind) []*gpusim.Kernel {
	domKernel, restKernel := reorganizedExpansionKernels(plan)
	var kernels []*gpusim.Kernel
	if len(domKernel.Blocks) > 0 {
		kernels = append(kernels, domKernel)
	}
	return append(kernels,
		restKernel,
		mergeKernel("merge(b-limiting)", plan.Limit.RowWork, plan.RowNNZ,
			mergeReadMatrixForm, plan.Limit.Limited, plan.Limit.ExtraSharedMem,
			accum, plan.B.Cols),
	)
}

// auditSimMemo fails unless the memoized results equal a fresh simulation
// of the same kernels, field for field.
func auditSimMemo(memo, fresh []*gpusim.KernelResult) error {
	if len(memo) != len(fresh) {
		return fmt.Errorf("kernels: simulation memo holds %d kernels, a fresh run launched %d", len(memo), len(fresh))
	}
	for i, res := range fresh {
		if !reflect.DeepEqual(memo[i], res) {
			return fmt.Errorf("kernels: simulation memo for kernel %q differs from a fresh run", res.Name)
		}
	}
	return nil
}

// reorganizedExpansionKernels turns the plan's block structure into two
// grids: the split dominator sub-blocks (launched from the temporary A′/B′
// matrices, tagged with their shared-vector segment) and the rest —
// untouched normal pairs, gathered combined blocks, and ungathered small
// pairs.
func reorganizedExpansionKernels(plan *core.Plan) (dom, rest *gpusim.Kernel) {
	domBB := newBlockBuilder(len(plan.Split.Blocks))
	bb := newBlockBuilder(plan.NumBlocks())
	b := plan.B
	plan.VisitBlocks(func(kind core.BlockKind, parts []core.Partition) {
		switch kind {
		case core.KindSplit:
			part := parts[0]
			rowNNZ := b.RowNNZ(part.Pair)
			blk := expansionPairBlock(part.ColHi-part.ColLo, rowNNZ, "dominator")
			// Sub-blocks of one dominator all read the same B row; the
			// segment tag lets later siblings hit it in L2.
			blk.Segment = part.Pair
			blk.SegmentBytes = rowNNZ * elemBytes
			domBB.add(blk)
		case core.KindNormal:
			part := parts[0]
			bb.add(expansionPairBlock(part.ColHi-part.ColLo, b.RowNNZ(part.Pair), "normal"))
		case core.KindGathered:
			var maxIter, sumThread int64
			eff := 0
			for _, part := range parts {
				colNNZ := int64(part.ColHi - part.ColLo)
				rowNNZ := int64(b.RowNNZ(part.Pair))
				if colNNZ > maxIter {
					maxIter = colNNZ
				}
				sumThread += colNNZ * rowNNZ
				eff += int(rowNNZ)
			}
			if eff > core.GatherBlockSize {
				eff = core.GatherBlockSize
			}
			bb.add(gpusim.BlockWork{
				Threads:           core.GatherBlockSize,
				EffThreads:        eff,
				MaxWarpIters:      maxIter,
				SumWarpIters:      maxIter,
				SumThreadIters:    sumThread,
				ReadBytesPerIter:  outerReadBytes,
				WriteBytesPerIter: productWrite,
				Segment:           gpusim.NoSegment,
				Partitions:        len(parts),
				Label:             "gathered",
			})
		case core.KindUngathered:
			part := parts[0]
			rowNNZ := b.RowNNZ(part.Pair)
			colNNZ := int64(part.ColHi - part.ColLo)
			bb.add(gpusim.BlockWork{
				Threads:           core.GatherBlockSize,
				EffThreads:        rowNNZ,
				MaxWarpIters:      colNNZ,
				SumWarpIters:      colNNZ,
				SumThreadIters:    colNNZ * int64(rowNNZ),
				ReadBytesPerIter:  outerReadBytes,
				WriteBytesPerIter: productWrite,
				Segment:           gpusim.NoSegment,
				Label:             "ungathered",
			})
		}
	})
	dom = &gpusim.Kernel{Name: "expand(dominators)", Phase: gpusim.PhaseExpansion, Blocks: domBB.grid()}
	rest = &gpusim.Kernel{Name: "expand(reorganized)", Phase: gpusim.PhaseExpansion, Blocks: bb.grid()}
	return dom, rest
}
