package kernels

import (
	"math/bits"
	"testing"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

var accumKinds = []sparse.AccumulatorKind{
	sparse.AccumAuto, sparse.AccumDense, sparse.AccumHash, sparse.AccumSort,
}

func TestSelectAccumulatorThresholds(t *testing.T) {
	const cols = 10_000
	cases := []struct {
		kind  sparse.AccumulatorKind
		upper int64
		want  sparse.AccumulatorKind
	}{
		// Explicit requests pass through whatever the row looks like.
		{sparse.AccumDense, 1, sparse.AccumDense},
		{sparse.AccumHash, 1 << 30, sparse.AccumHash},
		{sparse.AccumSort, 1 << 30, sparse.AccumSort},
		// Auto: tiny rows sort-combine...
		{sparse.AccumAuto, 1, sparse.AccumSort},
		{sparse.AccumAuto, sparse.SortRowMax, sparse.AccumSort},
		// ...mid rows hash while the table stays far below O(cols)...
		{sparse.AccumAuto, sparse.SortRowMax + 1, sparse.AccumHash},
		{sparse.AccumAuto, cols/hashColsFactor - 1, sparse.AccumHash},
		// ...and rows whose footprint rivals the dimension go dense.
		{sparse.AccumAuto, cols / hashColsFactor, sparse.AccumDense},
		{sparse.AccumAuto, cols, sparse.AccumDense},
	}
	for _, c := range cases {
		if got := selectAccumulator(c.kind, c.upper, cols); got != c.want {
			t.Errorf("selectAccumulator(%v, %d, %d) = %v, want %v",
				c.kind, c.upper, cols, got, c.want)
		}
	}
}

func TestHashTableSlots(t *testing.T) {
	for upper := int64(0); upper < 5000; upper++ {
		slots := hashTableSlots(upper)
		if slots&(slots-1) != 0 {
			t.Fatalf("hashTableSlots(%d) = %d, not a power of two", upper, slots)
		}
		if slots < 8 {
			t.Fatalf("hashTableSlots(%d) = %d, below the minimum table", upper, slots)
		}
		if upper >= 4 && int64(slots) < 2*upper {
			t.Fatalf("hashTableSlots(%d) = %d, load factor above 1/2", upper, slots)
		}
		if upper >= 4 && int64(slots) >= 4*upper {
			t.Fatalf("hashTableSlots(%d) = %d, table more than 2x oversized", upper, slots)
		}
		if slots != 1<<bits.Len64(uint64(slots-1)) {
			t.Fatalf("hashTableSlots(%d) = %d, not exact", upper, slots)
		}
	}
}

// TestAccumulatorBitIdenticalAcrossAlgorithms forces every strategy through
// every simulated algorithm and requires the numeric product to match the
// dense-oracle run bit for bit. The operand is a skewed network so the
// auto selector actually mixes classes.
func TestAccumulatorBitIdenticalAcrossAlgorithms(t *testing.T) {
	spec, err := datasets.ByName("as-caida")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sparse.Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range All() {
		for _, kind := range accumKinds {
			opts := titanOpts()
			opts.Accumulator = kind
			p, err := alg.Multiply(m, m, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", alg.Name(), kind, err)
			}
			if !p.C.Equal(want, 0) {
				t.Fatalf("%s/%v: product not bit-identical to Multiply", alg.Name(), kind)
			}
		}
	}
}

// TestAccumulatorPricedByReorganizer checks the merge cost model reacts to
// the strategy: on a hub-skewed network the all-dense, all-hash and
// all-sort Reorganizer runs must price their merges differently — the
// whole point of modeling probe and sort traffic — while the fixed-recipe
// libraries (published timing models) must not move at all.
func TestAccumulatorPricedByReorganizer(t *testing.T) {
	spec, err := datasets.ByName("youtube")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Generate(150)
	if err != nil {
		t.Fatal(err)
	}
	merge := func(alg Algorithm, kind sparse.AccumulatorKind) float64 {
		opts := titanOpts()
		opts.SkipValues = true
		opts.Accumulator = kind
		p, err := alg.Multiply(m, m, opts)
		if err != nil {
			t.Fatalf("%s/%v: %v", alg.Name(), kind, err)
		}
		return p.Report.PhaseSeconds(gpusim.PhaseMerge)
	}

	reorg := Reorganizer{}
	dense := merge(reorg, sparse.AccumDense)
	hash := merge(reorg, sparse.AccumHash)
	sort := merge(reorg, sparse.AccumSort)
	if dense <= 0 || hash <= 0 || sort <= 0 {
		t.Fatalf("non-positive merge time: dense %v hash %v sort %v", dense, hash, sort)
	}
	if dense == hash && dense == sort {
		t.Fatalf("merge cost model ignores the strategy: dense %v hash %v sort %v",
			dense, hash, sort)
	}

	for _, name := range []string{"cuSPARSE", "CUSP", "bhSPARSE", "MKL"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := merge(alg, sparse.AccumAuto)
		for _, kind := range accumKinds[1:] {
			if got := merge(alg, kind); got != base {
				t.Fatalf("%s: merge time moved with Options.Accumulator (%v: %v, auto: %v); fixed libraries keep their published recipe",
					name, kind, got, base)
			}
		}
	}
}

// TestReorganizerMergeSplitsRowsByStrategy reads the Reorganizer merge
// kernel's small-row classes (merge-small, merge-small-hash,
// merge-small-sort): auto splits a skewed network's short rows across
// strategies, and a pinned strategy prices every one of them as itself.
func TestReorganizerMergeSplitsRowsByStrategy(t *testing.T) {
	spec, err := datasets.ByName("youtube")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	label := map[sparse.AccumulatorKind]string{
		sparse.AccumDense: "merge-small",
		sparse.AccumHash:  "merge-small-hash",
		sparse.AccumSort:  "merge-small-sort",
	}
	for _, kind := range accumKinds {
		opts := titanOpts()
		opts.SkipValues = true
		opts.Accumulator = kind
		p, err := Reorganizer{}.Multiply(m, m, opts)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var merge *gpusim.KernelResult
		for _, k := range p.Report.Kernels {
			if k.Phase == gpusim.PhaseMerge {
				merge = k
			}
		}
		if merge == nil {
			t.Fatalf("%v: no merge kernel", kind)
		}
		var present []sparse.AccumulatorKind
		for k, l := range label {
			if _, ok := merge.Label(l); ok {
				present = append(present, k)
			}
		}
		switch {
		case kind == sparse.AccumAuto:
			if _, ok := merge.Label(label[sparse.AccumSort]); !ok || len(present) < 2 {
				t.Fatalf("auto priced the short rows of a skewed network under %v, want sort and another strategy (labels %v)",
					present, merge.Labels())
			}
		case len(present) != 1 || present[0] != kind:
			t.Fatalf("%v: short rows priced under %v (labels %v)", kind, present, merge.Labels())
		}
	}
}
