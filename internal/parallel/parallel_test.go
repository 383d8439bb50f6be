package parallel

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestUniformRanges(t *testing.T) {
	cases := []struct{ n, parts int }{
		{0, 4}, {1, 4}, {7, 3}, {100, 7}, {8, 8}, {5, 100},
	}
	for _, c := range cases {
		rs := UniformRanges(c.n, c.parts)
		next := 0
		for _, r := range rs {
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("UniformRanges(%d,%d): bad range %+v in %v", c.n, c.parts, r, rs)
			}
			next = r.Hi
		}
		if next != c.n {
			t.Fatalf("UniformRanges(%d,%d) covers %d items: %v", c.n, c.parts, next, rs)
		}
		if len(rs) > c.parts && c.parts > 0 {
			t.Fatalf("UniformRanges(%d,%d) produced %d parts", c.n, c.parts, len(rs))
		}
	}
}

func TestWeightedBoundsCover(t *testing.T) {
	weights := make([]int64, 1000)
	for i := range weights {
		weights[i] = int64(i % 17)
	}
	bounds := WeightedBounds(weights, 8)
	if bounds[0] != 0 || bounds[len(bounds)-1] != len(weights) {
		t.Fatalf("bounds do not cover items: %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing: %v", bounds)
		}
	}
}

// TestWeightedBoundsEmptyRows is the regression test for the w+1
// double-count: on a matrix that is 90% empty rows with power-law work on
// the rest, chunk boundaries must follow the work distribution, not the
// row count. Under the old weighting the empty-row mass dragged the
// boundaries toward equal row counts and the busiest chunk carried far
// more than its share.
func TestWeightedBoundsEmptyRows(t *testing.T) {
	const n = 10_000
	weights := make([]int64, n)
	// 10% populated rows with a power-law workload, concentrated at the
	// front the way hub rows of a sorted network are.
	var total, maxW int64
	for i := 0; i < n/10; i++ {
		w := int64(float64(200_000) / math.Pow(float64(i+1), 1.2))
		if w < 1 {
			w = 1
		}
		weights[i] = w
		total += w
		if w > maxW {
			maxW = w
		}
	}
	const parts = 16
	bounds := WeightedBounds(weights, parts)
	target := total/parts + 1
	for i := 0; i+1 < len(bounds); i++ {
		var work int64
		for _, w := range weights[bounds[i]:bounds[i+1]] {
			work += w
		}
		// A chunk may exceed the target by at most one item's work (items
		// are unsplittable) plus the empty-row slack of its span.
		slack := int64(bounds[i+1] - bounds[i])
		if work > target+maxW+slack {
			t.Fatalf("chunk %d [%d,%d) carries %d of %d total work (target %d)",
				i, bounds[i], bounds[i+1], work, total, target)
		}
	}
}

func TestForEachRunsEveryChunkOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		e := NewExecutor(workers)
		const n = 500
		counts := make([]atomic.Int32, n)
		chunks := UniformRanges(n, 64)
		e.ForEach(chunks, func(r Range) {
			for i := r.Lo; i < r.Hi; i++ {
				counts[i].Add(1)
			}
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachConcurrentCallers(t *testing.T) {
	// Many goroutines share one executor; the slot pool must bound the
	// helpers without deadlocking or losing chunks.
	e := NewExecutor(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local atomic.Int64
			e.ForEach(UniformRanges(1000, 32), func(r Range) {
				local.Add(int64(r.Len()))
			})
			total.Add(local.Load())
		}()
	}
	wg.Wait()
	if total.Load() != 16*1000 {
		t.Fatalf("lost work: covered %d of %d items", total.Load(), 16*1000)
	}
}

func TestForEachEmpty(t *testing.T) {
	NewExecutor(4).ForEach(nil, func(Range) { t.Fatal("fn called for empty chunk list") })
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned distinct executors")
	}
	if Default().Workers() < 1 {
		t.Fatal("Default has no workers")
	}
}

func TestArenaRoundTrip(t *testing.T) {
	f := GetFloats(100)
	if len(f) != 100 {
		t.Fatalf("GetFloats(100) has length %d", len(f))
	}
	f[0] = 7
	PutFloats(f)

	i := GetIntsZeroed(1000)
	for k := range i {
		if i[k] != 0 {
			t.Fatalf("GetIntsZeroed returned dirty buffer at %d: %d", k, i[k])
		}
	}
	PutInts(i)

	w := GetInt64s(33)
	if len(w) != 33 {
		t.Fatalf("GetInt64s(33) has length %d", len(w))
	}
	PutInt64s(w)

	b := GetUint64sZeroed(17)
	for k := range b {
		b[k] = PoisonUint64
	}
	PutUint64s(b)
	b = GetUint64sZeroed(17)
	for k := range b {
		if b[k] != 0 {
			t.Fatalf("GetUint64sZeroed returned dirty word at %d: %#x", k, b[k])
		}
	}
	PutUint64s(b)
}

func TestArenaPoison(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)

	f := GetFloats(64)
	for i := range f {
		f[i] = float64(i)
	}
	PutFloats(f)
	f2 := GetFloats(64)
	// The recycled buffer (same class, likely the same allocation) must
	// hold poison, never the previous user's values.
	for i := range f2 {
		if f2[i] == float64(i) && i > 0 {
			t.Fatalf("recycled float buffer leaked previous contents at %d", i)
		}
	}
	PutFloats(f2)

	s := GetInts(64)
	for i := range s {
		s[i] = i + 1
	}
	PutInts(s)
	s2 := GetInts(64)
	for i := range s2 {
		if s2[i] == i+1 {
			t.Fatalf("recycled int buffer leaked previous contents at %d", i)
		}
	}
	PutInts(s2)
}

func TestSizeClass(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := sizeClass(n); got != want {
			t.Fatalf("sizeClass(%d) = %d, want %d", n, got, want)
		}
	}
}
