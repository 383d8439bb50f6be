package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/blockreorg/blockreorg/sparse"
)

// Default parameter values; see Params.
const (
	DefaultAlpha       = 10
	DefaultBeta        = 10
	DefaultBlockSize   = 256
	DefaultMaxSplit    = 64
	DefaultLimitFactor = 4
	// LimitUnit is the granularity of extra shared memory allocated to a
	// limited merge block (the paper's experiments step by 6144 bytes).
	LimitUnit = 6144
	// WarpSize is the SIMT width assumed by the gathering bins.
	WarpSize = 32
	// GatherBlockSize is the thread count of a combined block: one warp,
	// fully packed, exactly as the paper's example builds them.
	GatherBlockSize = 32
)

// Params tunes the Block Reorganizer. The zero value selects the paper's
// defaults via Normalize.
type Params struct {
	// Alpha divides the dominator threshold: a pair is a dominator when
	// its block-wise workload exceeds nnz(Ĉ)/(NumSMs·Alpha). Larger Alpha
	// lowers the threshold and selects more dominators.
	Alpha float64
	// Beta divides the merge-limiting threshold the same way, over
	// row-wise intermediate populations: a row is limited when its
	// intermediate population exceeds nnz(Ĉ)/(NumSMs·Beta). The paper
	// fixes Beta = 10.
	Beta float64
	// BlockSize is the configured thread count of normal and split
	// expansion blocks.
	BlockSize int
	// NumSMs is the SM count of the target device; the splitting factor
	// heuristic aims to spread each dominator over at least this many
	// blocks.
	NumSMs int
	// MaxSplit caps the per-vector splitting factor (a power of two).
	MaxSplit int
	// SplitFactorOverride, when positive, forces one fixed splitting
	// factor for every dominator — used by the Figure 11 sweep.
	SplitFactorOverride int
	// LimitFactor is the number of LimitUnit shared-memory increments
	// added to limited merge blocks (the Figure 14 x-axis).
	LimitFactor int
	// Accumulator selects the merge strategy assigned to output rows (the
	// plan's AccumPlan); the zero value, sparse.AccumAuto, picks per row
	// from the intermediate populations.
	Accumulator sparse.AccumulatorKind
	// Toggles let the evaluation ablate each technique (Figure 10).
	DisableSplit  bool
	DisableGather bool
	DisableLimit  bool
}

// Normalize fills zero fields with the paper's defaults and validates the
// rest.
func (p Params) Normalize() (Params, error) {
	if p.Alpha == 0 {
		p.Alpha = DefaultAlpha
	}
	if p.Beta == 0 {
		p.Beta = DefaultBeta
	}
	if p.BlockSize == 0 {
		p.BlockSize = DefaultBlockSize
	}
	if p.NumSMs == 0 {
		p.NumSMs = 30
	}
	if p.MaxSplit == 0 {
		p.MaxSplit = DefaultMaxSplit
	}
	if p.LimitFactor == 0 {
		p.LimitFactor = DefaultLimitFactor
	}
	switch {
	case !validDivisor(p.Alpha) || !validDivisor(p.Beta):
		return p, fmt.Errorf("core: threshold divisors α=%g, β=%g must be positive and finite", p.Alpha, p.Beta)
	case p.BlockSize < WarpSize || p.BlockSize%WarpSize != 0:
		return p, fmt.Errorf("core: block size %d must be a positive multiple of %d", p.BlockSize, WarpSize)
	case p.NumSMs < 1:
		return p, errors.New("core: NumSMs must be positive")
	case p.MaxSplit < 1 || p.MaxSplit&(p.MaxSplit-1) != 0:
		return p, fmt.Errorf("core: MaxSplit %d must be a positive power of two", p.MaxSplit)
	case p.SplitFactorOverride < 0:
		return p, errors.New("core: negative split factor override")
	case p.SplitFactorOverride > 0 && p.SplitFactorOverride&(p.SplitFactorOverride-1) != 0:
		return p, fmt.Errorf("core: split factor override %d must be a power of two", p.SplitFactorOverride)
	case p.LimitFactor < 0:
		return p, errors.New("core: negative limit factor")
	case p.Accumulator > sparse.AccumSort:
		return p, fmt.Errorf("core: unknown accumulator kind %d", p.Accumulator)
	}
	return p, nil
}

// validDivisor reports whether x is a usable threshold divisor: positive
// and finite (NaN fails the comparison).
func validDivisor(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Category classifies one column/row product pair by workload.
type Category uint8

// Workload categories, in the paper's terminology.
const (
	// Empty pairs produce no products and launch no block.
	Empty Category = iota
	// LowPerformer pairs have fewer than WarpSize effective threads.
	LowPerformer
	// Normal pairs are neither dominators nor low performers.
	Normal
	// Dominator pairs exceed the block-wise workload threshold.
	Dominator
)

// String returns the category name used in reports.
func (c Category) String() string {
	switch c {
	case Empty:
		return "empty"
	case LowPerformer:
		return "low-performer"
	case Normal:
		return "normal"
	case Dominator:
		return "dominator"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}
