package core

import (
	"errors"
	"fmt"
)

// VerifyPlan is the deep sanitizer over a built Plan: it re-derives every
// conservation law the Block Reorganizer transformation must preserve and
// returns the first violation. Where Plan.Validate checks cheap structural
// consistency, VerifyPlan proves the plan still describes the same
// multiplication the classification measured:
//
//   - workload conservation: Work[k] = nnz(a_{*k})·nnz(b_{k*}) for every
//     pair, summing to TotalWork = nnz(Ĉ), and the row-wise populations sum
//     to the same nnz(Ĉ) (block-wise and row-wise precalculation agree);
//   - B-Splitting: the mapper array is consistent (mapper[c] names the pair
//     of block c, every dominator's chunks tile [0, nnz(a_{*k})) in order
//     without gap or overlap), and A′ holds exactly the dominator elements —
//     nnz is conserved and each A′ column is bitwise the chunk the mapper
//     claims;
//   - B-Gathering: the combined and ungathered blocks cover every low
//     performer exactly once, never a pair from another category, and no
//     combined block over-packs its 32-lane budget;
//   - B-Limiting: the limited set is exactly the rows above the threshold,
//     LimitedWork matches, and the extra shared memory is the configured
//     LimitFactor × 6144 B;
//   - execution inputs: the stashed row populations (RowNNZ) cover every
//     row of A.
//
// It costs O(nnz(A) + pairs + rows) and is wired behind Paranoid mode.
func VerifyPlan(p *Plan) error {
	if p == nil {
		return errors.New("core: nil plan")
	}
	if p.Cls == nil || p.Split == nil || p.Gather == nil || p.Limit == nil {
		return errors.New("core: plan missing a phase")
	}
	if p.A == nil || p.ACSC == nil || p.B == nil {
		return errors.New("core: plan missing an operand")
	}
	// The host engine writes every row into the slot RowNNZ sizes; a plan
	// without one per row cannot drive a multiplication.
	if len(p.RowNNZ) != p.A.Rows {
		return fmt.Errorf("core: plan holds %d row populations for %d rows", len(p.RowNNZ), p.A.Rows)
	}
	if err := verifyClassification(p); err != nil {
		return err
	}
	if err := verifySplit(p); err != nil {
		return err
	}
	if err := verifyGather(p); err != nil {
		return err
	}
	if err := verifyLimit(p); err != nil {
		return err
	}
	return p.Validate()
}

// VerifyPlanOnDevice is VerifyPlan plus the device-dependent bound: a
// limited merge block's shared memory demand must fit the per-block limit,
// or the limiting kernel can never be scheduled.
func VerifyPlanOnDevice(p *Plan, smemPerBlock int) error {
	if err := VerifyPlan(p); err != nil {
		return err
	}
	if smemPerBlock > 0 && p.Limit.ExtraSharedMem > smemPerBlock {
		return fmt.Errorf("core: limiting adds %d B shared memory, over the device's %d B per-block limit",
			p.Limit.ExtraSharedMem, smemPerBlock)
	}
	return nil
}

// verifyClassification re-derives the block-wise workloads from the
// operands and checks the category partition.
func verifyClassification(p *Plan) error {
	cls := p.Cls
	if p.ACSC.Cols != p.A.Cols || p.B.Rows != p.A.Cols {
		return fmt.Errorf("core: operand shapes disagree: A is %dx%d, A^T CSC has %d columns, B has %d rows",
			p.A.Rows, p.A.Cols, p.ACSC.Cols, p.B.Rows)
	}
	if len(cls.Work) != p.A.Cols || len(cls.EffThreads) != p.A.Cols || len(cls.Category) != p.A.Cols {
		return fmt.Errorf("core: classification covers %d pairs, want %d", len(cls.Work), p.A.Cols)
	}
	var total int64
	active := 0
	for k, w := range cls.Work {
		want := int64(p.ACSC.ColNNZ(k)) * int64(p.B.RowNNZ(k))
		if w != want {
			return fmt.Errorf("core: pair %d workload %d, want nnz(a)·nnz(b) = %d", k, w, want)
		}
		if cls.EffThreads[k] != p.B.RowNNZ(k) {
			return fmt.Errorf("core: pair %d effective threads %d, want nnz(b) = %d", k, cls.EffThreads[k], p.B.RowNNZ(k))
		}
		if w > 0 {
			total += w
			active++
		} else if cls.Category[k] != Empty {
			return fmt.Errorf("core: workless pair %d categorized %s", k, cls.Category[k])
		}
	}
	if total != cls.TotalWork {
		return fmt.Errorf("core: total workload %d, classification says %d", total, cls.TotalWork)
	}
	if active != cls.ActiveBlocks {
		return fmt.Errorf("core: %d active pairs, classification says %d", active, cls.ActiveBlocks)
	}
	if got := len(cls.Dominators) + len(cls.Normals) + len(cls.LowPerformers); got != active {
		return fmt.Errorf("core: category bins hold %d pairs, want %d active", got, active)
	}
	return nil
}

// verifySplit checks mapper consistency and nnz conservation across
// B-Splitting: every dominator's chunks tile its column exactly, and A′
// holds precisely the elements the mapper claims.
func verifySplit(p *Plan) error {
	sp := p.Split
	if len(sp.Factor) != len(p.Cls.Dominators) {
		return fmt.Errorf("core: %d split factors for %d dominators", len(sp.Factor), len(p.Cls.Dominators))
	}
	if len(sp.Mapper) != len(sp.Blocks) {
		return fmt.Errorf("core: mapper holds %d entries for %d blocks", len(sp.Mapper), len(sp.Blocks))
	}
	// Walk the blocks as consecutive per-dominator runs: dominators appear
	// in classification order, each tiled [0, colNNZ) by in-order chunks.
	c := 0
	var splitNNZ int
	for _, k := range p.Cls.Dominators {
		colNNZ := p.ACSC.ColNNZ(k)
		at := 0
		for c < len(sp.Blocks) && sp.Blocks[c].Pair == k {
			blk := sp.Blocks[c]
			if sp.Mapper[c] != k {
				return fmt.Errorf("core: mapper[%d] = %d, block multiplies pair %d", c, sp.Mapper[c], k)
			}
			if blk.ColLo != at {
				return fmt.Errorf("core: dominator %d chunk %d starts at %d, want %d (gap or overlap)", k, c, blk.ColLo, at)
			}
			if blk.ColHi <= blk.ColLo || blk.ColHi > colNNZ {
				return fmt.Errorf("core: dominator %d chunk [%d,%d) outside (%d,%d]", k, blk.ColLo, blk.ColHi, blk.ColLo, colNNZ)
			}
			at = blk.ColHi
			splitNNZ += blk.ColHi - blk.ColLo
			c++
		}
		if at != colNNZ {
			return fmt.Errorf("core: dominator %d chunks cover %d of %d elements", k, at, colNNZ)
		}
	}
	if c != len(sp.Blocks) {
		return fmt.Errorf("core: block %d multiplies pair %d, which is not a dominator", c, sp.Blocks[c].Pair)
	}
	if sp.APrime == nil {
		if len(sp.Blocks) > 0 {
			return errors.New("core: split blocks without A'")
		}
		return nil
	}
	if err := sp.APrime.CheckDeep(); err != nil {
		return fmt.Errorf("core: A': %w", err)
	}
	if sp.APrime.NNZ() != splitNNZ {
		return fmt.Errorf("core: A' holds %d elements, dominators hold %d (nnz not conserved)", sp.APrime.NNZ(), splitNNZ)
	}
	// Deep mapper check: A′ column c must be bitwise the chunk of the pair
	// the mapper names. A corrupted mapper entry or a miscopied chunk both
	// surface here.
	for c, blk := range sp.Blocks {
		gotIdx, gotVal := sp.APrime.Col(c)
		srcIdx, srcVal := p.ACSC.Col(sp.Mapper[c])
		if blk.ColHi > len(srcIdx) {
			return fmt.Errorf("core: mapper[%d] = %d names a column of %d elements, chunk wants [%d,%d)",
				c, sp.Mapper[c], len(srcIdx), blk.ColLo, blk.ColHi)
		}
		srcIdx, srcVal = srcIdx[blk.ColLo:blk.ColHi], srcVal[blk.ColLo:blk.ColHi]
		if len(gotIdx) != len(srcIdx) {
			return fmt.Errorf("core: A' column %d holds %d elements, chunk holds %d", c, len(gotIdx), len(srcIdx))
		}
		for e := range gotIdx {
			if gotIdx[e] != srcIdx[e] || gotVal[e] != srcVal[e] {
				return fmt.Errorf("core: A' column %d element %d is (%d, %g), source chunk has (%d, %g)",
					c, e, gotIdx[e], gotVal[e], srcIdx[e], srcVal[e])
			}
		}
	}
	return nil
}

// verifyGather checks that gathering is a bijection from the low performers
// onto the combined-block partitions and ungathered launches.
func verifyGather(p *Plan) error {
	isLow := make(map[int]bool, len(p.Cls.LowPerformers))
	for _, k := range p.Cls.LowPerformers {
		isLow[k] = true
	}
	seen := make(map[int]bool, len(p.Cls.LowPerformers))
	note := func(k int, where string) error {
		if !isLow[k] {
			return fmt.Errorf("core: %s block carries pair %d, category %s", where, k, p.Cls.Category[k])
		}
		if seen[k] {
			return fmt.Errorf("core: pair %d gathered twice", k)
		}
		seen[k] = true
		return nil
	}
	for i, cb := range p.Gather.Combined {
		if len(cb.Pairs) == 0 {
			return fmt.Errorf("core: combined block %d is empty", i)
		}
		lanes := 0
		for _, k := range cb.Pairs {
			if err := note(k, "combined"); err != nil {
				return err
			}
			lanes += p.Cls.EffThreads[k]
		}
		if lanes > GatherBlockSize {
			return fmt.Errorf("core: combined block %d packs %d lanes into %d", i, lanes, GatherBlockSize)
		}
	}
	for _, k := range p.Gather.Ungathered {
		if err := note(k, "ungathered"); err != nil {
			return err
		}
	}
	if len(seen) != len(p.Cls.LowPerformers) {
		return fmt.Errorf("core: gathering covers %d of %d low performers", len(seen), len(p.Cls.LowPerformers))
	}
	return nil
}

// verifyLimit checks row-wise workload conservation and that the limited
// set is exactly the rows above the threshold.
func verifyLimit(p *Plan) error {
	lim := p.Limit
	if len(lim.RowWork) != p.A.Rows {
		return fmt.Errorf("core: limit plan covers %d rows, want %d", len(lim.RowWork), p.A.Rows)
	}
	var rowTotal int64
	for i, w := range lim.RowWork {
		if w < 0 {
			return fmt.Errorf("core: negative intermediate population %d at row %d", w, i)
		}
		rowTotal += w
	}
	if rowTotal != p.Cls.TotalWork {
		return fmt.Errorf("core: row-wise workload %d, block-wise %d (nnz(Ĉ) not conserved)", rowTotal, p.Cls.TotalWork)
	}
	if want := p.Params.LimitFactor * LimitUnit; lim.ExtraSharedMem != want {
		return fmt.Errorf("core: limited blocks get %d B extra shared memory, want %d×%d = %d",
			lim.ExtraSharedMem, p.Params.LimitFactor, LimitUnit, want)
	}
	var limitedWork int64
	prev := -1
	for _, r := range lim.Limited {
		if r <= prev || r >= len(lim.RowWork) {
			return fmt.Errorf("core: limited row list not ascending in range at row %d", r)
		}
		prev = r
		if lim.RowWork[r] <= lim.Threshold {
			return fmt.Errorf("core: limited row %d population %d below threshold %d", r, lim.RowWork[r], lim.Threshold)
		}
		limitedWork += lim.RowWork[r]
	}
	if limitedWork != lim.LimitedWork {
		return fmt.Errorf("core: limited rows hold %d products, plan says %d", limitedWork, lim.LimitedWork)
	}
	if p.Params.DisableLimit {
		if len(lim.Limited) != 0 {
			return fmt.Errorf("core: limiting disabled but %d rows limited", len(lim.Limited))
		}
		return nil
	}
	if lim.Threshold > 0 {
		// Completeness: every row above the threshold must be limited.
		isLimited := make(map[int]bool, len(lim.Limited))
		for _, r := range lim.Limited {
			isLimited[r] = true
		}
		for i, w := range lim.RowWork {
			if w > lim.Threshold && !isLimited[i] {
				return fmt.Errorf("core: row %d population %d above threshold %d but not limited", i, w, lim.Threshold)
			}
		}
	}
	return nil
}
