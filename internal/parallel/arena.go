package parallel

import (
	"math"
	"math/bits"
	"sync"
)

// The arenas pool the scratch every numeric phase needs — dense float64
// accumulators, int marker/index arrays, int64 workload vectors, uint64
// occupancy bitmaps — in size-classed sync.Pools shared by the whole
// process. Class c holds slices of capacity exactly 1<<c, so a recycled
// buffer is never smaller than a fresh one of its class and waste is
// bounded at 2x.
//
// Contract: Get* buffers have the requested length and ARBITRARY
// contents (a previous user's data, or poison under Paranoid mode —
// initialize what you read). Put* hands a buffer back; the caller must
// not retain any alias. Helpers that need zeroed memory use the *Zeroed
// variants, which clear explicitly.

// Poison values written into recycled buffers under Paranoid mode. They
// are chosen to be loud: NaN propagates through any arithmetic, the int
// poison is far outside any valid index or count, and an all-ones word
// marks every bit of a bitmap as set.
const (
	PoisonInt    = math.MinInt64 + 0x5151
	PoisonInt32  = math.MinInt32 + 0x51
	PoisonUint64 = math.MaxUint64
)

// PoisonFloat returns the float64 poison (NaN; a function because NaN is
// not a constant).
func PoisonFloat() float64 { return math.NaN() }

// sizeClass returns the pool class for a request of n elements: the
// smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

const numClasses = 48 // 2^47 elements is far beyond host memory

// arena is the size-classed pool of one element type.
type arena[T any] struct {
	// The class pools hold *[]T so sync.Pool never boxes. The header
	// objects themselves are recycled through headers — a naive Put(&s)
	// would heap-allocate one fresh header per return-to-pool, charging
	// the arena an allocation on every round trip. Pointers box into
	// interface{} without allocating, so the steady state is
	// allocation-free in both directions.
	classes [numClasses]sync.Pool
	headers sync.Pool
}

var (
	floatArena  arena[float64]
	intArena    arena[int]
	int64Arena  arena[int64]
	uint64Arena arena[uint64]
)

// get returns a []T of length n with arbitrary contents.
func (a *arena[T]) get(n int) []T {
	stats.arenaGets.Add(1)
	c := sizeClass(n)
	if v := a.classes[c].Get(); v != nil {
		h := v.(*[]T)
		s := (*h)[:n]
		*h = nil
		a.headers.Put(h)
		return s
	}
	stats.arenaNews.Add(1)
	return make([]T, n, 1<<c)
}

// put recycles a buffer obtained from get, filling it with poison first
// under Paranoid mode.
func (a *arena[T]) put(s []T, poison T) {
	if cap(s) == 0 {
		return
	}
	c := sizeClass(cap(s))
	if cap(s) != 1<<c {
		return // foreign buffer; classes hold exact capacities only
	}
	s = s[:cap(s)]
	if poisoning() {
		for i := range s {
			s[i] = poison
		}
	}
	h, _ := a.headers.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s
	a.classes[c].Put(h)
}

// GetFloats returns a []float64 of length n with arbitrary contents.
func GetFloats(n int) []float64 { return floatArena.get(n) }

// PutFloats recycles a buffer obtained from GetFloats.
func PutFloats(s []float64) { floatArena.put(s, PoisonFloat()) }

// GetInts returns a []int of length n with arbitrary contents.
func GetInts(n int) []int { return intArena.get(n) }

// GetIntsZeroed returns a zeroed []int of length n — the shape marker
// sweeps need (0 = untouched).
func GetIntsZeroed(n int) []int {
	s := GetInts(n)
	clear(s)
	return s
}

// PutInts recycles a buffer obtained from GetInts.
func PutInts(s []int) { intArena.put(s, PoisonInt) }

// GetInt64s returns a []int64 of length n with arbitrary contents.
func GetInt64s(n int) []int64 { return int64Arena.get(n) }

// PutInt64s recycles a buffer obtained from GetInt64s.
func PutInt64s(s []int64) { int64Arena.put(s, PoisonInt) }

// GetUint64sZeroed returns a zeroed []uint64 of length n — the shape an
// occupancy bitmap needs (every bit clear).
func GetUint64sZeroed(n int) []uint64 {
	s := uint64Arena.get(n)
	clear(s)
	return s
}

// PutUint64s recycles a buffer obtained from GetUint64sZeroed.
func PutUint64s(s []uint64) { uint64Arena.put(s, PoisonUint64) }
