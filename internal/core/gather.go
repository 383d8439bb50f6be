package core

// GatherBin collects low-performer pairs whose effective thread counts fall
// in (MaxEff/2, MaxEff]; Factor = GatherBlockSize/MaxEff of them fill one
// combined block.
type GatherBin struct {
	// MaxEff is the bin's upper bound on effective threads (a power of
	// two ≤ WarpSize).
	MaxEff int
	// Factor is how many micro-blocks one combined block holds
	// (GatherBlockSize / MaxEff). Factor 1 means the bin is not gathered,
	// "to avoid serialization" per the paper.
	Factor int
	// Pairs lists the pair indices binned here, ascending.
	Pairs []int
}

// CombinedBlock is one gathered thread block: up to Factor micro-block
// partitions, each executing one original low-performer pair compacted to
// MaxEff lanes.
type CombinedBlock struct {
	// MaxEff is the per-partition lane budget (the bin's MaxEff).
	MaxEff int
	// Pairs are the partitions' original pair indices. A trailing block of
	// its bin may hold fewer than Factor partitions.
	Pairs []int
}

// GatherPlan is the outcome of B-Gathering over the low-performer pairs.
type GatherPlan struct {
	Bins []GatherBin
	// Combined lists the gathered blocks across all bins with Factor > 1.
	Combined []CombinedBlock
	// Ungathered lists pairs from Factor-1 bins (17..31 effective
	// threads), which launch as ordinary small blocks.
	Ungathered []int
}

// PlanGather applies B-Gathering: low performers are binned by
// power-of-two effective-thread ranges and compacted into combined
// 32-thread blocks (paper §IV-C2 and Figure 6). With DisableGather the
// pairs all land in Ungathered.
func PlanGather(cls *Classification, p Params) (*GatherPlan, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	plan := &GatherPlan{}
	if p.DisableGather {
		plan.Ungathered = append(plan.Ungathered, cls.LowPerformers...)
		return plan, nil
	}
	// Bins at MaxEff = 1, 2, 4, 8, 16, 32; the last has factor 1.
	bins := make([]GatherBin, 0, 6)
	for maxEff := 1; maxEff <= WarpSize; maxEff *= 2 {
		bins = append(bins, GatherBin{MaxEff: maxEff, Factor: GatherBlockSize / maxEff})
	}
	binOf := func(eff int) int {
		b := 0
		for 1<<b < eff {
			b++
		}
		return b
	}
	for _, k := range cls.LowPerformers {
		eff := cls.EffThreads[k]
		if eff <= 0 {
			continue
		}
		i := binOf(eff)
		bins[i].Pairs = append(bins[i].Pairs, k)
	}
	for _, bin := range bins {
		if len(bin.Pairs) == 0 {
			continue
		}
		plan.Bins = append(plan.Bins, bin)
		if bin.Factor <= 1 {
			plan.Ungathered = append(plan.Ungathered, bin.Pairs...)
			continue
		}
		for lo := 0; lo < len(bin.Pairs); lo += bin.Factor {
			hi := lo + bin.Factor
			if hi > len(bin.Pairs) {
				hi = len(bin.Pairs)
			}
			plan.Combined = append(plan.Combined, CombinedBlock{
				MaxEff: bin.MaxEff,
				Pairs:  append([]int(nil), bin.Pairs[lo:hi]...),
			})
		}
	}
	return plan, nil
}

// NumBlocks returns the number of thread blocks the gathered low performers
// launch (combined plus ungathered).
func (p *GatherPlan) NumBlocks() int { return len(p.Combined) + len(p.Ungathered) }

// MicroBlocks returns the number of original pairs covered by the plan.
func (p *GatherPlan) MicroBlocks() int {
	n := len(p.Ungathered)
	for _, c := range p.Combined {
		n += len(c.Pairs)
	}
	return n
}
