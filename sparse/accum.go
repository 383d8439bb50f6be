package sparse

import (
	"fmt"
	"math/bits"

	"github.com/blockreorg/blockreorg/internal/parallel"
)

// AccumulatorKind selects the per-row merge strategy of the Gustavson /
// outer-product accumulation phase. The merge combines a row's intermediate
// products — duplicate column indices summed, output sorted by column — and
// the spGEMM literature (Gao et al.'s survey, OpSparse) shows no single
// structure wins every row shape:
//
//   - AccumDense accumulates into a dense O(Cols) vector, marks columns
//     in a one-bit-per-column occupancy bitmap and emits the row in column
//     order by sweeping that bitmap — unbeatable when the row's footprint
//     is a large fraction of the output dimension, wasteful cache traffic
//     when a long sparse row scatters a few hundred updates across a huge
//     vector. A row whose merged population covers the bitmap scatters
//     every product without a first-touch branch.
//   - AccumHash accumulates into an open-addressing table sized from the
//     row's upper-bound population, keeping the working set proportional
//     to the row instead of the matrix.
//   - AccumSort appends the raw products and sort-combines them — cheapest
//     for tiny rows, where a table or a dense sweep is all overhead.
//
// AccumAuto picks per row from the upper-bound intermediate population the
// symbolic phase already computes (and plans stash as Limit.RowWork), so
// the choice costs nothing extra. The kind is a choice of each run, never
// part of a plan. Two resolvers read it: SelectAccumulator resolves each
// row as the simulated merge kernel prices it, and the host merge
// (RowMerger.ProductRow) applies its own measured rule. Every kind
// produces bit-identical output: dense and hash add each column's products
// in stream order, and the sort path's stable sort preserves stream order
// among duplicates.
type AccumulatorKind uint8

// Accumulator strategies. The zero value is AccumAuto: callers that leave
// the knob alone get the per-row selector.
const (
	AccumAuto AccumulatorKind = iota
	AccumDense
	AccumHash
	AccumSort
)

// String names the kind as accepted by ParseAccumulator.
func (k AccumulatorKind) String() string {
	switch k {
	case AccumAuto:
		return "auto"
	case AccumDense:
		return "dense"
	case AccumHash:
		return "hash"
	case AccumSort:
		return "sort"
	default:
		return fmt.Sprintf("accumulator(%d)", uint8(k))
	}
}

// ParseAccumulator resolves an accumulator name. The empty string selects
// AccumAuto, so an unset Options field or CLI flag means "let the selector
// decide".
func ParseAccumulator(s string) (AccumulatorKind, error) {
	switch s {
	case "", "auto":
		return AccumAuto, nil
	case "dense":
		return AccumDense, nil
	case "hash":
		return AccumHash, nil
	case "sort":
		return AccumSort, nil
	}
	return AccumAuto, fmt.Errorf("sparse: unknown accumulator %q (want auto, dense, hash or sort)", s)
}

// Auto-selection thresholds (see DESIGN §15). The gpusim merge cost model
// resolves AccumAuto through SelectAccumulator row by row as it prices the
// merge; the host merge resolves it through hostAccumulator, which shares
// both thresholds and adds the host-only ones below.
const (
	// SortRowMax is the upper-bound intermediate population at or below
	// which a row sort-combines: at these sizes the products fit a handful
	// of cache lines and an insertion sort beats both table setup and a
	// dense-vector round trip.
	SortRowMax = 32
	// HashColsFactor gates the hash accumulator: a row hashes when its
	// power-of-two table (about 2×upper slots) is still an order of
	// magnitude smaller than the dense accumulator's O(Cols) working set.
	// Rows failing the test keep the dense path — its unconditional
	// per-product cost is lower than a probe.
	HashColsFactor = 8
)

// Host-only thresholds of hostAccumulator and the dense path's emit rule.
// The dense accumulator costs 8 bytes per output column plus one bit of
// occupancy, so the operand's width decides whether that scratch stays in
// cache and whether a row can be swept out of the bitmap in column order.
const (
	// sweepSpanShift sets the dense path's emit rule: a row is swept out
	// of the occupancy bitmap when the words spanning its touched columns
	// number at most 2^sweepSpanShift per touched column, and sorts its
	// touched list otherwise. Timed per words-per-column bin on youtube
	// and R-MAT operands, the sweep wins up to 4–8 words per column and
	// loses from 16. The same bound gates the wide path (wideDenseRow),
	// which sweeps the whole bitmap: timed per bin of whole-bitmap words
	// per merged column, its branch-free scatter wins up to 4 words per
	// column on every operand timed, ties or wins up to 8, wins or loses
	// by operand up to 32, and loses beyond.
	sweepSpanShift = 3
	// hostDistinctShift bounds "nearly all distinct": at most one product
	// in 2^hostDistinctShift duplicates an earlier column. Such a row
	// sort-combines unless it is wide (wideDenseRow): the whole bitmap is
	// then too wide for the dense path to sweep, and it would most often
	// sort its touched columns anyway, after a scatter that gains nothing.
	hostDistinctShift = 5
	// hostHashMinCols is the output dimension from which short rows
	// hash: from 2^21 columns the dense scratch is 16 MiB per worker, and
	// a row-sized table keeps the working set in cache and bounds what a
	// very wide operand acquires.
	hostHashMinCols = 1 << 21
)

// SelectAccumulator resolves the effective strategy for one row as the
// gpusim merge cost model prices it: kind itself unless it is AccumAuto,
// in which case the row's upper-bound intermediate population (upper) is
// weighed against the output dimension (cols). upper is an upper bound on
// the merged population — the symbolic phase's row work — so the hash
// table it sizes never overflows.
func SelectAccumulator(kind AccumulatorKind, upper int64, cols int) AccumulatorKind {
	if kind != AccumAuto {
		return kind
	}
	switch {
	case upper <= SortRowMax:
		return AccumSort
	case upper*HashColsFactor < int64(cols):
		return AccumHash
	default:
		return AccumDense
	}
}

// hostAccumulator resolves the strategy the host merge runs for one row:
// kind itself unless it is AccumAuto. upper is the row's intermediate
// product count and nnz its merged population, 0 when unknown. The rule
// comes from timing each strategy per row-size bin on the Table II grid
// and on R-MAT operands (DESIGN §15): rows the dense path cannot run
// branch-free (wideDenseRow) sort-combine when they are tiny, as in
// SelectAccumulator, or have next to nothing to combine; short rows of
// very wide operands hash; everything else goes dense, which on a host
// CPU beats a probe per product and, swept out of its bitmap, a sort per
// row — tiny wide rows included.
func hostAccumulator(kind AccumulatorKind, upper int64, nnz, cols int) AccumulatorKind {
	if kind != AccumAuto {
		return kind
	}
	switch {
	case !wideDenseRow(nnz, cols) && (upper <= SortRowMax || (upper-int64(nnz))<<hostDistinctShift <= int64(nnz)):
		return AccumSort
	case cols >= hostHashMinCols && upper*HashColsFactor < int64(cols):
		return AccumHash
	default:
		return AccumDense
	}
}

// wideDenseRow reports whether the dense path runs a row of merged
// population nnz branch-free: whether the operand's whole occupancy bitmap
// holds at most 2^sweepSpanShift words per merged column, so sweeping all
// of it costs no more than the emit rule already allows a row's span. An
// unknown population (nnz 0) is never wide.
func wideDenseRow(nnz, cols int) bool {
	return nnz > 0 && (cols+63)>>6 <= nnz<<sweepSpanShift
}

// AccumCounts tallies merged rows per accumulator strategy. Zero-work rows
// are not counted: they merge through no strategy at all.
type AccumCounts struct {
	Dense int64
	Hash  int64
	Sort  int64
}

// add folds other into c.
func (c *AccumCounts) add(other AccumCounts) {
	c.Dense += other.Dense
	c.Hash += other.Hash
	c.Sort += other.Sort
}

// RowMerger is the pluggable accumulation engine behind the host numeric
// engine's row loop (MultiplyConfigured). One merger serves one goroutine;
// scratch — dense accumulator, occupancy bitmap, hash table, pair
// buffers — is drawn lazily from the internal/parallel arenas on first use
// per strategy and returned by Release. Output rows are appended to caller-provided
// slices (CombineRow's contract), so the engine passes capped three-index
// slices and writes straight into each row's final slot.
type RowMerger struct {
	cols int
	// Counts tallies the rows merged per strategy since construction.
	Counts AccumCounts

	// Dense accumulator scratch: acc holds partial sums and occupied
	// holds one bit per output column, set when a row touches that
	// column. Both are zeroed once, when the merger acquires them, and
	// every row clears the cells and bits it used as it emits them, so
	// between rows acc is all +0 — each column's sum starts there without
	// a store — and the bitmap is all zero; neither is re-zeroed between
	// rows.
	acc      []float64
	occupied []uint64

	// Hash accumulator scratch: open addressing with linear probing over
	// power-of-two tables; hKeys holds column indices (-1 = empty).
	hKeys []int
	hVals []float64

	// Pair scratch shared by the strategies: the dense path's touched
	// list, the hash path's insertion log (key + slot), and the sort
	// path's append buffer.
	pIdx   []int
	pVal   []float64
	pSlots []int
}

// NewRowMerger returns a merger for rows of an output with the given
// column count. No scratch is acquired until a strategy first needs it.
func NewRowMerger(cols int) *RowMerger {
	return &RowMerger{cols: cols}
}

// Release returns all scratch to the arenas. The merger must not be used
// afterwards.
func (m *RowMerger) Release() {
	parallel.PutFloats(m.acc)
	parallel.PutUint64s(m.occupied)
	parallel.PutInts(m.hKeys)
	parallel.PutFloats(m.hVals)
	parallel.PutInts(m.pIdx)
	parallel.PutFloats(m.pVal)
	parallel.PutInts(m.pSlots)
	*m = RowMerger{}
}

// ensureDense acquires the dense accumulator and its occupancy bitmap,
// both zeroed: arena buffers come back with arbitrary contents (NaN under
// Paranoid mode), and the dense path relies on all-zero scratch.
func (m *RowMerger) ensureDense() {
	if m.acc == nil {
		m.acc = parallel.GetFloats(m.cols)
		clear(m.acc)
		m.occupied = parallel.GetUint64sZeroed((m.cols + 63) / 64)
	}
}

// ensurePairs guarantees the pair scratch holds at least n entries.
func (m *RowMerger) ensurePairs(n int) {
	if cap(m.pIdx) >= n {
		return
	}
	parallel.PutInts(m.pIdx)
	parallel.PutFloats(m.pVal)
	parallel.PutInts(m.pSlots)
	m.pIdx = parallel.GetInts(n)
	m.pVal = parallel.GetFloats(n)
	m.pSlots = parallel.GetInts(n)
}

// ensureHash guarantees the hash table holds at least `slots` entries
// (rounded to the arena's power-of-two capacity) with every key empty. The
// table is kept clean between rows — each merge resets exactly the slots
// it filled — so growth is the only time it is wiped wholesale.
func (m *RowMerger) ensureHash(slots int) {
	if cap(m.hKeys) >= slots {
		m.hKeys = m.hKeys[:cap(m.hKeys)]
		m.hVals = m.hVals[:cap(m.hVals)]
		return
	}
	parallel.PutInts(m.hKeys)
	parallel.PutFloats(m.hVals)
	m.hKeys = parallel.GetInts(slots)
	m.hKeys = m.hKeys[:cap(m.hKeys)]
	m.hVals = parallel.GetFloats(len(m.hKeys))
	m.hVals = m.hVals[:cap(m.hVals)]
	for i := range m.hKeys {
		m.hKeys[i] = -1
	}
}

// HashTableSlots sizes the open-addressing table for a row holding at most
// `upper` distinct columns: the next power of two past 2×upper keeps the
// load factor at or below one half. Exported so the gpusim merge cost
// model prices exactly the table the host hash accumulator builds.
func HashTableSlots(upper int64) int {
	if upper < 4 {
		upper = 4
	}
	return 1 << bits.Len64(uint64(2*upper-1))
}

// fibMul is the 64-bit Fibonacci hashing multiplier (2^64/φ).
const fibMul = 0x9E3779B97F4A7C15

// ProductRow computes row i of A×B under the given strategy (resolved
// through hostAccumulator when kind is AccumAuto) and appends the merged
// row — column-sorted, duplicate-free — to outIdx/outVal. upper is the
// row's intermediate product count, the symbolic upper bound that sizes the
// scratch; nnz is the row's exact merged population, or 0 when the caller
// does not know it. Both drive auto-selection. The output is bit-identical
// across strategies.
func (m *RowMerger) ProductRow(kind AccumulatorKind, a, b *CSR, i int, upper int64, nnz int,
	outIdx []int, outVal []float64) ([]int, []float64) {
	if upper == 0 || a.Ptr[i] == a.Ptr[i+1] {
		return outIdx, outVal
	}
	switch hostAccumulator(kind, upper, nnz, m.cols) {
	case AccumHash:
		m.Counts.Hash++
		return m.hashProductRow(a, b, i, upper, outIdx, outVal)
	case AccumSort:
		m.Counts.Sort++
		return m.sortProductRow(a, b, i, upper, outIdx, outVal)
	default:
		m.Counts.Dense++
		return m.denseProductRow(a, b, i, upper, nnz, outIdx, outVal)
	}
}

// denseProductRow accumulates into the dense vector, whose cells are all
// +0 between rows, so every column's sum starts at +0 without a store. A
// wide row — one whose merged population nnz makes the whole bitmap
// sweepable (wideDenseRow) — scatters every product branch-free, setting
// its column's occupancy bit unconditionally, and is emitted by sweeping
// every bitmap word. Any other row marks each column's first touch in the
// bitmap and records it: a row whose touched columns are dense enough in
// their word span is emitted by sweeping those words, and a row too sparse
// for its span sorts its touched-column list instead. Every emit clears
// the bits and cells it read, so both scratch arrays are all zero again
// when the row returns.
func (m *RowMerger) denseProductRow(a, b *CSR, i int, upper int64, nnz int,
	outIdx []int, outVal []float64) ([]int, []float64) {
	m.ensureDense()
	acc, occ := m.acc, m.occupied
	if wideDenseRow(nnz, m.cols) {
		for ka := a.Ptr[i]; ka < a.Ptr[i+1]; ka++ {
			av := a.Val[ka]
			lo, hi := b.Ptr[a.Idx[ka]], b.Ptr[a.Idx[ka]+1]
			bv := b.Val[lo:hi]
			for kb, j := range b.Idx[lo:hi] {
				occ[j>>6] |= uint64(1) << (uint(j) & 63)
				acc[j] += av * bv[kb]
			}
		}
		return sweepDense(acc, occ, 0, len(occ)-1, outIdx, outVal)
	}
	bound := int(upper)
	if bound > m.cols {
		bound = m.cols
	}
	m.ensurePairs(bound)
	touched := m.pIdx[:0]
	lo, hi := m.cols, 0
	for ka := a.Ptr[i]; ka < a.Ptr[i+1]; ka++ {
		k := a.Idx[ka]
		av := a.Val[ka]
		for kb := b.Ptr[k]; kb < b.Ptr[k+1]; kb++ {
			j := b.Idx[kb]
			if bit := uint64(1) << (uint(j) & 63); occ[j>>6]&bit == 0 {
				occ[j>>6] |= bit
				touched = append(touched, j)
				lo, hi = min(lo, j), max(hi, j)
			}
			acc[j] += av * b.Val[kb]
		}
	}
	if hi>>6-lo>>6 < len(touched)<<sweepSpanShift {
		return sweepDense(acc, occ, lo>>6, hi>>6, outIdx, outVal)
	}
	insertionSortInts(touched)
	for _, j := range touched {
		occ[j>>6] &^= uint64(1) << (uint(j) & 63)
		outIdx = append(outIdx, j)
		outVal = append(outVal, acc[j])
		acc[j] = 0
	}
	return outIdx, outVal
}

// sweepDense emits the occupied columns of bitmap words first..last in
// column order, clearing each word and each emitted cell as it goes.
func sweepDense(acc []float64, occ []uint64, first, last int,
	outIdx []int, outVal []float64) ([]int, []float64) {
	for w := first; w <= last; w++ {
		word := occ[w]
		occ[w] = 0
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			outIdx = append(outIdx, j)
			outVal = append(outVal, acc[j])
			acc[j] = 0
		}
	}
	return outIdx, outVal
}

// hashProductRow accumulates through the open-addressing table. Each
// column's products are added in stream order — the same addition order as
// the dense path — and the merged pairs are co-sorted at the end (keys are
// unique by then, so sort stability is irrelevant).
func (m *RowMerger) hashProductRow(a, b *CSR, i int, upper int64,
	outIdx []int, outVal []float64) ([]int, []float64) {
	m.ensureHash(HashTableSlots(upper))
	bound := int(upper)
	if bound > m.cols {
		bound = m.cols
	}
	m.ensurePairs(bound)
	keys, vals := m.hKeys, m.hVals
	mask := len(keys) - 1
	shift := uint(64 - bits.Len(uint(mask)))
	touched := m.pIdx[:0]
	slots := m.pSlots[:0]
	for ka := a.Ptr[i]; ka < a.Ptr[i+1]; ka++ {
		k := a.Idx[ka]
		av := a.Val[ka]
		for kb := b.Ptr[k]; kb < b.Ptr[k+1]; kb++ {
			j := b.Idx[kb]
			pos := int((uint64(j) * fibMul) >> shift)
			for {
				kj := keys[pos]
				if kj == j {
					vals[pos] += av * b.Val[kb]
					break
				}
				if kj < 0 {
					// The column's sum starts at +0, as in the dense
					// path, so a lone -0 product merges to +0.
					keys[pos] = j
					vals[pos] = 0 + av*b.Val[kb]
					touched = append(touched, j)
					slots = append(slots, pos)
					break
				}
				pos = (pos + 1) & mask
			}
		}
	}
	base := len(outIdx)
	for t, j := range touched {
		slot := slots[t]
		outIdx = append(outIdx, j)
		outVal = append(outVal, vals[slot])
		keys[slot] = -1
	}
	sortRowEntries(outIdx[base:], outVal[base:])
	return outIdx, outVal
}

// sortProductRow appends the raw products and sort-combines them. The
// stable pair sort preserves stream order among equal columns, so the
// duplicate sums add in exactly the dense path's order.
func (m *RowMerger) sortProductRow(a, b *CSR, i int, upper int64,
	outIdx []int, outVal []float64) ([]int, []float64) {
	m.ensurePairs(int(upper))
	pi := m.pIdx[:0]
	pv := m.pVal[:0]
	for ka := a.Ptr[i]; ka < a.Ptr[i+1]; ka++ {
		k := a.Idx[ka]
		av := a.Val[ka]
		for kb := b.Ptr[k]; kb < b.Ptr[k+1]; kb++ {
			pi = append(pi, b.Idx[kb])
			pv = append(pv, av*b.Val[kb])
		}
	}
	return CombineRow(pi, pv, outIdx, outVal)
}
