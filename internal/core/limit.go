package core

// LimitPlan is the outcome of B-Limiting: the merge blocks of long output
// rows are granted extra shared memory so fewer of them co-reside on an SM,
// reducing L2 contention during the atomic accumulation (paper §IV-D).
type LimitPlan struct {
	// Threshold is the row-wise cutoff: a row is limited when its
	// intermediate population exceeds β times the mean over non-empty
	// rows. (Read literally, the paper's nnz(Ĉ)/(#blocks·β) with β=10 is
	// inconsistent with its own YouTube walkthrough — 12657 limited rows
	// each above 493k products would overrun nnz(Ĉ) forty-fold — so we
	// adopt the reading that reproduces the reported populations.)
	Threshold int64
	// Limited lists output row indices whose intermediate population
	// exceeds the threshold, ascending.
	Limited []int
	// LimitedWork is the total intermediate population of limited rows.
	LimitedWork int64
	// ExtraSharedMem is the additional shared memory in bytes attached to
	// each limited merge block: LimitFactor × LimitUnit.
	ExtraSharedMem int
	// RowWork[i] is the intermediate population of output row i (the
	// row-wise nnz of Ĉ) for all rows; merge kernels are built from it.
	RowWork []int64
}

// PlanLimitFrom computes the B-Limiting plan for C = A×B from the
// row-wise intermediate populations of C. With DisableLimit no rows are
// limited but the row populations are still returned for merge-kernel
// construction.
func PlanLimitFrom(rowWork []int64, cls *Classification, p Params) (*LimitPlan, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	plan := &LimitPlan{
		RowWork:        rowWork,
		ExtraSharedMem: p.LimitFactor * LimitUnit,
	}
	if cls.ActiveBlocks == 0 || p.DisableLimit {
		return plan, nil
	}
	activeRows := 0
	for _, w := range rowWork {
		if w > 0 {
			activeRows++
		}
	}
	if activeRows == 0 {
		return plan, nil
	}
	plan.Threshold = int64(float64(cls.TotalWork) / float64(activeRows) * p.Beta)
	if plan.Threshold < 1 {
		plan.Threshold = 1
	}
	for i, w := range rowWork {
		if w > plan.Threshold {
			plan.Limited = append(plan.Limited, i)
			plan.LimitedWork += w
		}
	}
	return plan, nil
}
