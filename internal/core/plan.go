package core

import (
	"errors"
	"fmt"

	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
)

// BlockKind distinguishes the expansion blocks a Plan launches.
type BlockKind uint8

// Expansion block kinds.
const (
	// KindNormal is an untransformed pair block.
	KindNormal BlockKind = iota
	// KindSplit is one sub-block of a split dominator.
	KindSplit
	// KindGathered is a combined block of micro-block partitions.
	KindGathered
	// KindUngathered is a low performer launched alone (its bin had
	// gathering factor 1, or gathering is disabled).
	KindUngathered
)

// String names the kind for labels and reports.
func (k BlockKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindSplit:
		return "split"
	case KindGathered:
		return "gathered"
	case KindUngathered:
		return "ungathered"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Partition is one unit of outer-product work inside an expansion block:
// elements [ColLo, ColHi) of A's column Pair against all of B's row Pair.
type Partition struct {
	Pair         int
	ColLo, ColHi int
}

// Plan is the complete Block Reorganizer output for one multiplication:
// classification plus the three technique plans, ready for functional
// execution or timing simulation.
type Plan struct {
	Params Params
	A      *sparse.CSR
	ACSC   *sparse.CSC
	B      *sparse.CSR
	Cls    *Classification
	Split  *SplitPlan
	Gather *GatherPlan
	Limit  *LimitPlan

	// RowNNZ holds the exact merged row populations of C (the symbolic
	// product) and NNZC their sum. Both depend only on the operand
	// structure, so a rebound plan (Rebind) keeps them; stashing them here
	// is what lets plan-cache hits skip the symbolic sweep entirely.
	RowNNZ []int
	NNZC   int64

	// CIdx holds C's column indices row by row, the rows' offsets given
	// by RowNNZ, when the plan was built by a run that computed the
	// product's values; nil otherwise. It is set before the plan is
	// returned and never changes afterwards, so a rebound plan shares it
	// read-only, and a run driven by the plan fills values into this
	// known structure (sparse.MultiplyKnown) instead of merging rows.
	CIdx []int

	// Sim memoizes the simulated expansion and merge kernels per device
	// and accumulator. It is held by pointer, so a rebound copy shares it
	// with the plan it came from and every later hit on the same device
	// and accumulator reuses one simulation.
	Sim *SimMemo
}

// BuildPlan runs the full Block Reorganizer preprocessing for C = A×B,
// computing the symbolic analysis BuildPlanCached takes first.
func BuildPlan(a, b *sparse.CSR, p Params) (*Plan, error) {
	if a == nil || b == nil {
		return nil, errors.New("core: nil operand")
	}
	rowWork, err := sparse.IntermediateRowNNZ(a, b)
	if err != nil {
		return nil, err
	}
	rowNNZ, err := sparse.SymbolicRowNNZOn(a, b, nil)
	if err != nil {
		return nil, err
	}
	return BuildPlanCached(a, a.ToCSC(), b, rowWork, rowNNZ, p)
}

// BuildPlanCached builds the plan from the operands' symbolic analysis:
// acsc is A in column orientation, rowWork the per-row intermediate
// populations of C, and rowNNZ its exact merged row populations (the
// symbolic product). Callers that analyze the same operands repeatedly
// (the precompute layer, the benchmark harness) share these across runs.
// Analysis that does not fit the operands is an error.
func BuildPlanCached(a *sparse.CSR, acsc *sparse.CSC, b *sparse.CSR, rowWork []int64, rowNNZ []int, p Params) (*Plan, error) {
	return BuildPlanTraced(a, acsc, b, rowWork, rowNNZ, p, nil)
}

// BuildPlanTraced is BuildPlanCached with phase-level tracing: the
// classification, B-Splitting, B-Gathering and B-Limiting stages each
// record a span on rec. A nil rec disables tracing at zero cost; the plan
// never retains the recorder.
func BuildPlanTraced(a *sparse.CSR, acsc *sparse.CSC, b *sparse.CSR, rowWork []int64, rowNNZ []int, p Params, rec *trace.Recorder) (*Plan, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	if a == nil || b == nil {
		return nil, errors.New("core: nil operand")
	}
	switch {
	case acsc == nil || acsc.Rows != a.Rows || acsc.Cols != a.Cols:
		return nil, fmt.Errorf("core: column-oriented A does not have A's %dx%d shape", a.Rows, a.Cols)
	case len(rowWork) != a.Rows || len(rowNNZ) != a.Rows:
		return nil, fmt.Errorf("core: %d row works and %d row populations for %d rows",
			len(rowWork), len(rowNNZ), a.Rows)
	}
	endCls := rec.SpanItems(trace.PhaseClassify, int64(acsc.Cols))
	cls, err := Classify(acsc, b, p)
	endCls()
	if err != nil {
		return nil, err
	}
	endSplit := rec.SpanItems(trace.PhaseSplit, int64(len(cls.Dominators)))
	split, err := PlanSplit(cls, acsc, p)
	endSplit()
	if err != nil {
		return nil, err
	}
	endGather := rec.SpanItems(trace.PhaseGather, int64(len(cls.LowPerformers)))
	gather, err := PlanGather(cls, p)
	endGather()
	if err != nil {
		return nil, err
	}
	endLimit := rec.SpanItems(trace.PhaseLimit, int64(a.Rows))
	limit, err := PlanLimitFrom(rowWork, cls, p)
	endLimit()
	if err != nil {
		return nil, err
	}
	var nnzc int64
	for _, n := range rowNNZ {
		nnzc += int64(n)
	}
	plan := &Plan{
		Params: p, A: a, ACSC: acsc, B: b,
		Cls: cls, Split: split, Gather: gather, Limit: limit,
		RowNNZ: rowNNZ, NNZC: nnzc,
		Sim: &SimMemo{},
	}
	plan.RecordTrace(rec)
	return plan, nil
}

// VisitBlocks calls fn once per expansion thread block the plan launches,
// in launch order: split dominator sub-blocks first (they run longest),
// then normal blocks, then gathered and ungathered low performers. The
// parts slice is reused between calls; callers must not retain it.
func (p *Plan) VisitBlocks(fn func(kind BlockKind, parts []Partition)) {
	buf := make([]Partition, 0, GatherBlockSize)
	for _, blk := range p.Split.Blocks {
		buf = buf[:0]
		buf = append(buf, Partition{Pair: blk.Pair, ColLo: blk.ColLo, ColHi: blk.ColHi})
		fn(KindSplit, buf)
	}
	for _, k := range p.Cls.Normals {
		buf = buf[:0]
		buf = append(buf, Partition{Pair: k, ColLo: 0, ColHi: p.ACSC.ColNNZ(k)})
		fn(KindNormal, buf)
	}
	for _, cb := range p.Gather.Combined {
		buf = buf[:0]
		for _, k := range cb.Pairs {
			buf = append(buf, Partition{Pair: k, ColLo: 0, ColHi: p.ACSC.ColNNZ(k)})
		}
		fn(KindGathered, buf)
	}
	for _, k := range p.Gather.Ungathered {
		buf = buf[:0]
		buf = append(buf, Partition{Pair: k, ColLo: 0, ColHi: p.ACSC.ColNNZ(k)})
		fn(KindUngathered, buf)
	}
}

// NumBlocks returns the number of expansion blocks launched.
func (p *Plan) NumBlocks() int {
	return p.Split.NumBlocks() + len(p.Cls.Normals) + p.Gather.NumBlocks()
}

// Execute computes C = A×B functionally by walking the transformed block
// structure — every split sub-block, gathered partition and normal pair —
// and merging the intermediate products, proving that the reorganized
// launch produces exactly the reference product. The products are
// enumerated in block launch order but merged in the canonical order
// (ascending k within each output row, B-row order within one k), so the
// result is bit-identical to ExecuteOn, to sparse.Multiply, and to any
// panel-tiled reassembly — the launch order covers the multiset of
// products, the canonical order fixes their floating-point association.
// It is the test oracle for the paper's functional claim: every
// reorganized block covers each product exactly once.
//
// Memory is O(nnz(Ĉ)); intended for validation and moderate sizes. The
// maxIntermediate guard (0 = no limit) rejects materializations that would
// not fit.
func (p *Plan) Execute(maxIntermediate int64) (*sparse.CSR, error) {
	if maxIntermediate > 0 && p.Cls.TotalWork > maxIntermediate {
		return nil, fmt.Errorf("core: intermediate matrix has %d products, over limit %d", p.Cls.TotalWork, maxIntermediate)
	}
	total := int(p.Cls.TotalWork)
	is := make([]int, 0, total)
	ks := make([]int, 0, total)
	js := make([]int, 0, total)
	vs := make([]float64, 0, total)
	p.VisitBlocks(func(_ BlockKind, parts []Partition) {
		for _, part := range parts {
			colIdx, colVal := p.ACSC.Col(part.Pair)
			rowIdx, rowVal := p.B.Row(part.Pair)
			for e := part.ColLo; e < part.ColHi; e++ {
				i := colIdx[e]
				av := colVal[e]
				for r := range rowIdx {
					is = append(is, i)
					ks = append(ks, part.Pair)
					js = append(js, rowIdx[r])
					vs = append(vs, av*rowVal[r])
				}
			}
		}
	})
	// Canonical order: stable counting sorts by k, then by row, order the
	// products by (row, k) and keep each run's B-row order.
	ord := make([]int, len(is))
	for k := range ord {
		ord[k] = k
	}
	ord = bucketStable(bucketStable(ord, ks, p.A.Cols), is, p.A.Rows)
	coo := sparse.NewCOO(p.A.Rows, p.B.Cols, len(is))
	for _, o := range ord {
		coo.Add(is[o], js[o], vs[o])
	}
	return coo.ToCSR(), nil
}

// bucketStable returns order stably re-sorted by key[order[t]], for keys
// in [0, n).
func bucketStable(order, key []int, n int) []int {
	start := make([]int, n+1)
	for _, o := range order {
		start[key[o]+1]++
	}
	for b := 0; b < n; b++ {
		start[b+1] += start[b]
	}
	out := make([]int, len(order))
	for _, o := range order {
		out[start[key[o]]] = o
		start[key[o]]++
	}
	return out
}

// Stats summarizes a plan the way the paper's §IV-E walkthrough does.
type PlanStats struct {
	Pairs          int
	ActiveBlocks   int
	Dominators     int
	Normals        int
	LowPerformers  int
	SplitBlocks    int
	CombinedBlocks int
	UngatheredLows int
	LimitedRows    int
	TotalWork      int64
	Threshold      int64
}

// Stats returns the plan's population summary.
func (p *Plan) Stats() PlanStats {
	return PlanStats{
		Pairs:          len(p.Cls.Work),
		ActiveBlocks:   p.Cls.ActiveBlocks,
		Dominators:     len(p.Cls.Dominators),
		Normals:        len(p.Cls.Normals),
		LowPerformers:  len(p.Cls.LowPerformers),
		SplitBlocks:    p.Split.NumBlocks(),
		CombinedBlocks: len(p.Gather.Combined),
		UngatheredLows: len(p.Gather.Ungathered),
		LimitedRows:    len(p.Limit.Limited),
		TotalWork:      p.Cls.TotalWork,
		Threshold:      p.Cls.Threshold,
	}
}

// RecordTrace reports the plan's classification populations, workload
// volume and chosen factors onto a tracing recorder — the counter/gauge
// half of a profile, complementing the phase spans. Nil rec is a no-op.
// Plan-cache hits call it too, so reused-plan profiles still carry the
// classification even though no classification span ran.
func (p *Plan) RecordTrace(rec *trace.Recorder) {
	if !rec.Enabled() {
		return
	}
	st := p.Stats()
	rec.Add(trace.CounterPairs, int64(st.Pairs))
	rec.Add(trace.CounterDominators, int64(st.Dominators))
	rec.Add(trace.CounterNormals, int64(st.Normals))
	rec.Add(trace.CounterLowPerformers, int64(st.LowPerformers))
	rec.Add(trace.CounterSplitBlocks, int64(st.SplitBlocks))
	rec.Add(trace.CounterCombinedBlocks, int64(st.CombinedBlocks))
	rec.Add(trace.CounterLimitedRows, int64(st.LimitedRows))
	rec.Add(trace.CounterFlops, st.TotalWork)
	rec.Add(trace.CounterNNZC, p.NNZC)
	rec.Set(trace.GaugeAlpha, p.Params.Alpha)
	rec.Set(trace.GaugeBeta, p.Params.Beta)
	rec.Set(trace.GaugeLimitExtraShm, float64(p.Limit.ExtraSharedMem))
	maxFactor := 0
	for _, f := range p.Split.Factor {
		if f > maxFactor {
			maxFactor = f
		}
	}
	rec.Set(trace.GaugeSplitFactorMax, float64(maxFactor))
}

// Validate checks the plan's structural invariants: every active pair is
// covered by exactly one kind of expansion block, every dominator column is
// chunked without gaps or overlap, gathered blocks respect the lane budget,
// and the mapper is consistent with A′. It returns the first violation.
func (p *Plan) Validate() error {
	// Element coverage per pair, accumulated over all blocks.
	covered := make([]int, len(p.Cls.Work))
	p.VisitBlocks(func(kind BlockKind, parts []Partition) {
		for _, part := range parts {
			covered[part.Pair] += part.ColHi - part.ColLo
		}
	})
	for k, w := range p.Cls.Work {
		want := 0
		if w > 0 {
			want = p.ACSC.ColNNZ(k)
		}
		if covered[k] != want {
			return fmt.Errorf("core: pair %d covers %d of %d column elements", k, covered[k], want)
		}
	}
	// Dominator chunking and mapper consistency.
	if p.Split.APrime != nil {
		if err := p.Split.APrime.Validate(); err != nil {
			return fmt.Errorf("core: A': %w", err)
		}
		if len(p.Split.Mapper) != len(p.Split.Blocks) {
			return fmt.Errorf("core: mapper holds %d entries for %d blocks", len(p.Split.Mapper), len(p.Split.Blocks))
		}
		for c, blk := range p.Split.Blocks {
			if p.Split.Mapper[c] != blk.Pair {
				return fmt.Errorf("core: mapper[%d] = %d, block pair %d", c, p.Split.Mapper[c], blk.Pair)
			}
			if blk.ColLo < 0 || blk.ColHi <= blk.ColLo || blk.ColHi > p.ACSC.ColNNZ(blk.Pair) {
				return fmt.Errorf("core: block %d chunk [%d,%d) out of range", c, blk.ColLo, blk.ColHi)
			}
		}
	}
	// Gathered lane budgets.
	for i, cb := range p.Gather.Combined {
		lanes := 0
		for _, k := range cb.Pairs {
			lanes += p.Cls.EffThreads[k]
		}
		if lanes > GatherBlockSize {
			return fmt.Errorf("core: combined block %d packs %d lanes", i, lanes)
		}
	}
	// Limited rows must exceed the threshold.
	for _, r := range p.Limit.Limited {
		if p.Limit.RowWork[r] <= p.Limit.Threshold {
			return fmt.Errorf("core: limited row %d below threshold", r)
		}
	}
	return nil
}
