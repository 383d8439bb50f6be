package ooc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
)

// tilePlanCacheSize bounds the engine's tile plan cache: enough for an
// 8×8 grid. Tiles with the same panel structures share every
// preprocessing decision, so iterative workloads (PowerIterate, MCL) pay
// the tile preprocessing only on their first pass while the grid fits.
const tilePlanCacheSize = 64

// Options configures an out-of-core engine.
type Options struct {
	// Budget caps the engine's working set in bytes. It sizes the tile
	// grid — a quarter each for the resident A row panel and B column
	// panel, the rest for the result tile and merge buffers — and must be
	// positive. The cap is soft: a single row or column heavier than its
	// share still gets a panel of its own, and the overshoot shows up
	// honestly in Stats.PeakBytes.
	Budget int64
	// Dir hosts the engine's scratch and spill files. Empty creates a
	// private temporary directory that Close removes; a caller-supplied
	// directory is created if missing and left in place (only the
	// engine's own files are deleted).
	Dir string
	// GPU, Workers, Paranoid and Accumulator pass through to the per-tile
	// multiplications; see blockreorg.Options. The result is bit-identical
	// for every setting.
	GPU         blockreorg.GPU
	Workers     int
	Paranoid    bool
	Accumulator string
	// NoPlanReuse disables the tile plan cache: every tile pays its own
	// preprocessing and counts as a plan miss.
	NoPlanReuse bool
	// Trace optionally attaches a recorder: the engine records ooc.*
	// phase spans (load, reshard, multiply, spill, merge), tile and plan
	// cache counters, byte counters, and the budget/peak gauges, and the
	// inner multiplications record their own kernel phases on the same
	// recorder. Nil disables tracing at zero cost.
	Trace *blockreorg.Trace
}

// Stats reports what an engine has done since New. Counters accumulate
// across calls — an iterative workload's plan hits build up here — while
// Grid reflects the last multiplication.
type Stats struct {
	// Grid is the last multiplication's tile grid: row panels × column
	// panels.
	Grid [2]int
	// Tiles counts tile multiplications; PlanHits and PlanMisses split
	// them by whether a cached plan drove the tile.
	Tiles, PlanHits, PlanMisses int64
	// ReshardReuses counts multiplications that reused the previous
	// B-operand reshard (same *sparse.CSR passed again).
	ReshardReuses int64
	// BytesLoaded counts panel bytes materialized from the operands,
	// scratch and spill files; BytesSpilled counts bytes written to
	// scratch and spill files.
	BytesLoaded, BytesSpilled int64
	// BudgetBytes echoes the configured budget; PeakBytes is the
	// accountant's high-water mark of tracked working-set bytes.
	BudgetBytes, PeakBytes int64
	// Flops accumulates the multiply-add counts of the tile products;
	// SimSeconds the simulated device seconds of the inner
	// multiplications.
	Flops      int64
	SimSeconds float64
	// Wall-clock seconds per engine phase.
	LoadSeconds, ReshardSeconds, MultiplySeconds, SpillSeconds, MergeSeconds float64
}

// Engine is a memory-budgeted out-of-core spGEMM engine. Create one with
// New, run any number of Multiply / MultiplyFiles calls, and Close it to
// drop scratch state. An Engine is not safe for concurrent use; the
// per-tile multiplications inside one call still parallelize across the
// configured workers.
type Engine struct {
	opts   Options
	dir    string
	ownDir bool
	acct   Accountant
	plans  *blockreorg.PlanCache // nil when Options.NoPlanReuse
	stats  Stats
	seq    int

	// Reshard cache for the in-memory path: passing the same B object to
	// consecutive Multiply calls (M ← M·A iteration) reuses the column
	// reshard on disk, and the panels' fingerprints, instead of rebuilding
	// them.
	bKey    *sparse.CSR
	bPanels *colPanels
}

// New creates an engine. The budget must be positive.
func New(opts Options) (*Engine, error) {
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("ooc: memory budget must be positive, got %d", opts.Budget)
	}
	dir, ownDir := opts.Dir, false
	if dir == "" {
		t, err := os.MkdirTemp("", "ooc-")
		if err != nil {
			return nil, err
		}
		dir, ownDir = t, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{
		opts:   opts,
		dir:    dir,
		ownDir: ownDir,
		stats:  Stats{BudgetBytes: opts.Budget},
	}
	if !opts.NoPlanReuse {
		e.plans = blockreorg.NewPlanCache(tilePlanCacheSize)
	}
	return e, nil
}

// Close drops the reshard cache and, for an engine that created its own
// temporary directory, removes it.
func (e *Engine) Close() error {
	e.dropReshard()
	if e.ownDir {
		return os.RemoveAll(e.dir)
	}
	return nil
}

// Stats returns a snapshot of the engine's accumulated statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.PeakBytes = e.acct.Peak()
	return s
}

// shareA and shareB are the byte budgets of one resident A row panel and
// one resident B column panel; the remaining half of the budget covers
// the result tile and the merge working set.
func (e *Engine) shareA() int64 { return e.opts.Budget / 4 }
func (e *Engine) shareB() int64 { return e.opts.Budget / 4 }

// scratchPath returns a fresh file path inside the engine's directory.
func (e *Engine) scratchPath(name string) string {
	e.seq++
	return filepath.Join(e.dir, fmt.Sprintf("%06d-%s", e.seq, name))
}

// dropReshard forgets the cached B reshard and removes its files.
func (e *Engine) dropReshard() {
	e.bPanels.remove()
	e.bKey, e.bPanels = nil, nil
}

// Multiply computes C = A×B out of core and returns the assembled result.
// The product is bit-identical to blockreorg.Multiply and sparse.Multiply
// on the same operands, for every budget. The result matrix is the
// caller's: it is reserved once at its exact size and each row panel is
// copied into place as the tile loop emits it. The engine's own working
// set stays within the budget.
//
// Passing the same b object to consecutive calls reuses its on-disk
// column reshard — the M ← M·A iteration pattern pays the reshard once.
// A failed call drops the reshard with every other file it wrote.
func (e *Engine) Multiply(a, b *sparse.CSR) (*sparse.CSR, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("%w: nil operand", blockreorg.ErrInvalidOptions)
	}
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: cannot multiply %dx%d by %dx%d",
			blockreorg.ErrDimensionMismatch, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Rows == 0 || b.Cols == 0 || a.NNZ() == 0 || b.NNZ() == 0 {
		return sparse.NewCSR(a.Rows, b.Cols), nil
	}
	if e.bKey == b && e.bPanels != nil {
		e.stats.ReshardReuses++
	} else {
		e.dropReshard()
		bp, err := e.reshard(memSource{b})
		if err != nil {
			return nil, err
		}
		e.bKey, e.bPanels = b, bp
	}
	c, err := e.multiplyResident(a, b)
	if err != nil {
		e.dropReshard()
		return nil, err
	}
	e.finish()
	return c, nil
}

// multiplyResident runs the tile loop over a resident A against the
// cached reshard of b and assembles the product in place.
func (e *Engine) multiplyResident(a, b *sparse.CSR) (*sparse.CSR, error) {
	flops, err := outEstimate(memSource{a}, memSource{b})
	if err != nil {
		return nil, err
	}
	counts, err := sparse.SymbolicRowNNZOn(a, b, parallel.NewExecutor(e.opts.Workers))
	if err != nil {
		return nil, err
	}
	var nnz int64
	for _, n := range counts {
		nnz += int64(n)
	}
	// The product is reserved once at its exact size, and every emitted
	// row panel is copied into place.
	c := sparse.NewCSR(a.Rows, b.Cols)
	c.Idx = make([]int, 0, nnz)
	c.Val = make([]float64, 0, nnz)
	err = e.tiles(memSource{a}, flops, e.bPanels, func(lo, _ int64, panel *sparse.CSR) error {
		for r := 0; r < panel.Rows; r++ {
			idx, val := panel.Row(r)
			c.AppendRow(int(lo)+r, idx, val)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n := c.NNZ(); int64(n) != nnz || cap(c.Idx) != n {
		return nil, fmt.Errorf("ooc: row panels hold %d entries, the symbolic product %d", n, nnz)
	}
	return c, nil
}

// MultiplyFiles computes C = A×B where both operands are segmented
// containers on disk and the result streams into a new segmented
// container at outPath — no matrix is ever whole in memory.
// Row panels align to the stored panel boundaries, so generate the
// operands with a stored panel size no larger than the intended grid's
// (genmat -stream -panel).
func (e *Engine) MultiplyFiles(aPath, bPath, outPath string) error {
	segA, err := sparse.OpenSegmented(aPath)
	if err != nil {
		return err
	}
	defer segA.Close()
	segB, err := sparse.OpenSegmented(bPath)
	if err != nil {
		return err
	}
	defer segB.Close()
	ha, hb := segA.Header(), segB.Header()
	if ha.Cols != hb.Rows {
		return fmt.Errorf("%w: cannot multiply %dx%d by %dx%d",
			blockreorg.ErrDimensionMismatch, ha.Rows, ha.Cols, hb.Rows, hb.Cols)
	}
	if ha.Rows == 0 || hb.Cols == 0 || ha.NNZ == 0 || hb.NNZ == 0 {
		return writeEmptySegmented(outPath, ha.Rows, hb.Cols)
	}
	// The file path does not use the reshard cache: the engine cannot
	// cheaply prove the file unchanged between calls.
	bp, err := e.reshard(fileSource{segB})
	if err != nil {
		return err
	}
	defer bp.remove()
	flops, err := outEstimate(fileSource{segA}, fileSource{segB})
	if err != nil {
		return err
	}
	w, err := sparse.CreateSegmented(outPath, ha.Rows, hb.Cols)
	if err != nil {
		return err
	}
	if err := e.tiles(fileSource{segA}, flops, bp, w.AppendPanel); err != nil {
		w.Discard()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	e.finish()
	return nil
}

// writeEmptySegmented writes an all-zero rows×cols segmented container.
func writeEmptySegmented(path string, rows, cols int64) error {
	w, err := sparse.CreateSegmented(path, rows, cols)
	if err != nil {
		return err
	}
	if rows > 0 {
		if err := w.AppendPanel(0, rows, sparse.NewCSR(int(rows), int(cols))); err != nil {
			w.Discard()
			return err
		}
	}
	return w.Close()
}

// finish publishes the budget and peak gauges after a successful run.
func (e *Engine) finish() {
	rec := e.opts.Trace
	rec.Set(trace.GaugeOOCBudget, float64(e.opts.Budget))
	rec.Set(trace.GaugeOOCPeakBytes, float64(e.acct.Peak()))
}

// colPanels is B resharded into column panels: the column cut points, one
// segmented scratch container per panel with panel-local column indices,
// and each panel's structure fingerprint, 0 until the panel's first load
// computes it (a digest that is really 0 is merely recomputed).
type colPanels struct {
	cuts  []int64
	paths []string
	fps   []uint64
}

// remove deletes the panels' files. A nil reshard has none.
func (bp *colPanels) remove() {
	if bp == nil {
		return
	}
	for _, p := range bp.paths {
		os.Remove(p)
	}
}

// reshard streams B's rows once and scatters them into one segmented
// scratch container per column panel, with column indices local to the
// panel. The tile loop then loads B[:, J] with a single sequential read.
// The nJ writers are open at once, each with its 64 KiB write buffer,
// which the accountant does not track.
func (e *Engine) reshard(b source) (bp *colPanels, err error) {
	rec := e.opts.Trace
	t0 := time.Now()
	rows, _ := b.dims()
	hist, err := b.colNNZ()
	if err != nil {
		return nil, err
	}
	cuts := colCuts(hist, rows, e.shareB())
	nJ := len(cuts) - 1
	bp = &colPanels{cuts: cuts, fps: make([]uint64, nJ)}
	writers := make([]*sparse.SegWriter, nJ)
	defer func() {
		if err != nil {
			for _, w := range writers {
				if w != nil {
					w.Discard()
				}
			}
			bp.remove()
		}
	}()
	for J := 0; J < nJ; J++ {
		path := e.scratchPath(fmt.Sprintf("b-col-%04d.seg", J))
		w, werr := sparse.CreateSegmented(path, rows, cuts[J+1]-cuts[J])
		if werr != nil {
			return nil, werr
		}
		writers[J] = w
		bp.paths = append(bp.paths, path)
	}
	var written int64
	for _, chunk := range ranges(b.rowCuts(e.shareB(), nil, 0)) {
		slab, lerr := b.loadRows(chunk.lo, chunk.hi)
		if lerr != nil {
			return nil, lerr
		}
		cb := csrBytes(slab)
		e.acct.Grab(cb)
		e.noteLoaded(cb)
		for J := 0; J < nJ; J++ {
			part := slab.ColPanel(int(cuts[J]), int(cuts[J+1]))
			pb := csrBytes(part)
			e.acct.Grab(pb)
			aerr := writers[J].AppendPanel(chunk.lo, chunk.hi, part)
			e.acct.Release(pb)
			if aerr != nil {
				e.acct.Release(cb)
				return nil, aerr
			}
			written += pb
		}
		e.acct.Release(cb)
	}
	for _, w := range writers {
		if cerr := w.Close(); cerr != nil {
			return nil, cerr
		}
	}
	e.noteSpilled(written)
	d := time.Since(t0)
	e.stats.ReshardSeconds += d.Seconds()
	rec.Observe(trace.PhaseOOCReshard, written, d)
	return bp, nil
}

// outEstimate returns the symbolic per-row product counts of A against B
// — the grid planner's upper bound on output row populations, so A's row
// panels are cut by the size of the tiles they produce, not just the
// bytes they load.
func outEstimate(a, b source) ([]int64, error) {
	bRows, err := b.rowNNZ()
	if err != nil {
		return nil, err
	}
	return a.rowFlops(bRows)
}

// emitFunc receives output row panel [lo, hi) with global column
// indices, in row order. The panel is the engine's: emit copies what it
// keeps.
type emitFunc func(lo, hi int64, panel *sparse.CSR) error

// tiles runs the tile loop one row panel at a time: A's panel I is
// multiplied against every B column panel, and output row panel I is
// assembled and emitted before panel I+1 is loaded. On a one-column grid
// tile (I, 0) is row panel I itself, so it is emitted as it stands, and
// the single B panel is loaded once and stays resident across every I.
// Wider grids spill each tile and merge panel I from its own files right
// after its last tile, so at most one row panel's spills are on disk at a
// time. Plans are cached by the panel pair's structure fingerprints and
// rebound on reuse.
func (e *Engine) tiles(a source, outWeight []int64, bp *colPanels, emit emitFunc) error {
	aCuts := a.rowCuts(e.shareA(), outWeight, e.opts.Budget/4)
	nI, nJ := len(aCuts)-1, len(bp.cuts)-1
	e.stats.Grid = [2]int{nI, nJ}
	if nJ == 1 {
		bPanel, fpB, err := e.loadB(bp, 0)
		if err != nil {
			return err
		}
		defer e.acct.Release(csrBytes(bPanel))
		for I := 0; I < nI; I++ {
			if err := e.emitTile(a, aCuts[I], aCuts[I+1], bPanel, fpB, emit); err != nil {
				return err
			}
		}
		return nil
	}
	for I := 0; I < nI; I++ {
		if err := e.spillRowPanel(a, I, aCuts[I], aCuts[I+1], bp, emit); err != nil {
			return err
		}
	}
	return nil
}

// emitTile multiplies A's rows [lo, hi) by the whole of B, resident as
// one column panel, and emits the tile as output row panel [lo, hi).
func (e *Engine) emitTile(a source, lo, hi int64, bPanel *sparse.CSR, fpB uint64, emit emitFunc) error {
	aPanel, err := e.load(func() (*sparse.CSR, error) { return a.loadRows(lo, hi) })
	if err != nil {
		return err
	}
	c, err := e.tile(aPanel, aPanel.StructureFingerprint(), bPanel, fpB)
	e.acct.Release(csrBytes(aPanel))
	if err != nil {
		return err
	}
	defer e.acct.Release(csrBytes(c))
	t0 := time.Now()
	if err := emit(lo, hi, c); err != nil {
		return err
	}
	d := time.Since(t0)
	e.stats.MergeSeconds += d.Seconds()
	e.opts.Trace.Observe(trace.PhaseOOCMerge, int64(c.NNZ()), d)
	return nil
}

// spillRowPanel multiplies A's rows [lo, hi), row panel I, against every
// B column panel, spilling each tile, then merges and emits the panel and
// deletes its spill files.
func (e *Engine) spillRowPanel(a source, I int, lo, hi int64, bp *colPanels, emit emitFunc) error {
	nJ := len(bp.cuts) - 1
	spills := make([]string, 0, nJ)
	defer func() {
		for _, p := range spills {
			os.Remove(p)
		}
	}()
	aPanel, err := e.load(func() (*sparse.CSR, error) { return a.loadRows(lo, hi) })
	if err != nil {
		return err
	}
	fpA := aPanel.StructureFingerprint()
	for J := 0; J < nJ; J++ {
		path, err := e.spillTile(I, J, aPanel, fpA, bp)
		if err != nil {
			e.acct.Release(csrBytes(aPanel))
			return err
		}
		spills = append(spills, path)
	}
	e.acct.Release(csrBytes(aPanel))
	return e.mergePanel(I, lo, hi, bp.cuts, spills, emit)
}

// spillTile multiplies A's row panel I by B's column panel J and spills
// the tile to a fresh scratch container, whose path it returns.
func (e *Engine) spillTile(I, J int, aPanel *sparse.CSR, fpA uint64, bp *colPanels) (string, error) {
	bPanel, fpB, err := e.loadB(bp, J)
	if err != nil {
		return "", err
	}
	c, err := e.tile(aPanel, fpA, bPanel, fpB)
	e.acct.Release(csrBytes(bPanel))
	if err != nil {
		return "", err
	}
	tb := csrBytes(c)
	defer e.acct.Release(tb)
	t0 := time.Now()
	path := e.scratchPath(fmt.Sprintf("c-%04d-%04d.seg", I, J))
	if err := sparse.WriteSegmentedFile(path, c, 0); err != nil {
		return "", err
	}
	e.noteSpilled(tb)
	d := time.Since(t0)
	e.stats.SpillSeconds += d.Seconds()
	e.opts.Trace.Observe(trace.PhaseOOCSpill, tb, d)
	return path, nil
}

// load materializes a panel through read, charges it to the accountant
// and records the load. The caller releases csrBytes of the panel.
func (e *Engine) load(read func() (*sparse.CSR, error)) (*sparse.CSR, error) {
	t0 := time.Now()
	m, err := read()
	if err != nil {
		return nil, err
	}
	n := csrBytes(m)
	e.acct.Grab(n)
	e.noteLoaded(n)
	d := time.Since(t0)
	e.stats.LoadSeconds += d.Seconds()
	e.opts.Trace.Observe(trace.PhaseOOCLoad, n, d)
	return m, nil
}

// loadB loads B's column panel J like load and returns it with its
// structure fingerprint, which the reshard keeps after the first load.
func (e *Engine) loadB(bp *colPanels, J int) (*sparse.CSR, uint64, error) {
	m, err := e.load(func() (*sparse.CSR, error) { return sparse.ReadSegmentedFile(bp.paths[J]) })
	if err != nil {
		return nil, 0, err
	}
	if bp.fps[J] == 0 {
		bp.fps[J] = m.StructureFingerprint()
	}
	return m, bp.fps[J], nil
}

// tile multiplies one (A panel, B panel) pair through the tile plan cache.
// The product is charged to the accountant; the caller releases
// csrBytes of it.
func (e *Engine) tile(aPanel *sparse.CSR, fpA uint64, bPanel *sparse.CSR, fpB uint64) (*sparse.CSR, error) {
	rec := e.opts.Trace
	t0 := time.Now()
	mopts := blockreorg.Options{
		GPU:         e.opts.GPU,
		Workers:     e.opts.Workers,
		Paranoid:    e.opts.Paranoid,
		Accumulator: e.opts.Accumulator,
		Trace:       e.opts.Trace,
	}
	// The engine takes no context: a tile's multiply runs to its end.
	res, err := e.plans.Multiply(context.Background(), aPanel, bPanel, fpA, fpB, mopts)
	if err != nil {
		return nil, err
	}
	if res.PlanReused {
		e.stats.PlanHits++
		rec.Add(trace.CounterOOCPlanHits, 1)
	} else {
		e.stats.PlanMisses++
		rec.Add(trace.CounterOOCPlanMisses, 1)
	}
	e.stats.Tiles++
	e.stats.Flops += res.Flops
	e.stats.SimSeconds += res.TotalSeconds
	rec.Add(trace.CounterOOCTiles, 1)
	e.acct.Grab(csrBytes(res.C))
	d := time.Since(t0)
	e.stats.MultiplySeconds += d.Seconds()
	rec.Observe(trace.PhaseOOCMultiply, res.Flops, d)
	return res.C, nil
}

// mergePanel builds output row panel I, rows [lo, hi), from its spilled
// tiles and emits it: each row is the concatenation of the tiles' rows
// with every tile's local columns shifted to its panel start. Tiles are
// streamed row by row, so the resident merge state is the output panel
// plus the streams' pointer arrays.
func (e *Engine) mergePanel(I int, lo, hi int64, bCuts []int64, spills []string, emit emitFunc) error {
	rec := e.opts.Trace
	t0 := time.Now()
	nJ := len(spills)
	rowsI := hi - lo
	segs := make([]*sparse.SegFile, nJ)
	defer func() {
		for _, s := range segs {
			if s != nil {
				s.Close()
			}
		}
	}()
	streams := make([]*sparse.PanelRows, nJ)
	var tileBytes, ptrBytes, panelNNZ int64
	for J := 0; J < nJ; J++ {
		s, err := sparse.OpenSegmented(spills[J])
		if err != nil {
			return err
		}
		segs[J] = s
		h := s.Header()
		if h.Rows != rowsI || h.Cols != bCuts[J+1]-bCuts[J] {
			return fmt.Errorf("ooc: spill tile (%d,%d) is %dx%d, want %dx%d",
				I, J, h.Rows, h.Cols, rowsI, bCuts[J+1]-bCuts[J])
		}
		streams[J], err = s.StreamPanel(0)
		if err != nil {
			return err
		}
		tileBytes += csrBytesFor(rowsI, h.NNZ)
		ptrBytes += 8 * (rowsI + 1)
		panelNNZ += h.NNZ
	}
	e.acct.Grab(ptrBytes)
	defer e.acct.Release(ptrBytes)
	e.noteLoaded(tileBytes)

	panelBytes := csrBytesFor(rowsI, panelNNZ)
	e.acct.Grab(panelBytes)
	defer e.acct.Release(panelBytes)
	// The panel holds exactly the bytes charged above: its arrays are
	// reserved at panelNNZ and each tile's row segment appends straight
	// into them, with no growth and no staging copy. The column offset is
	// applied in the stream's row buffer, which is ours until the next
	// NextRow; AppendRow extends row r by one segment per tile.
	panel := sparse.NewCSR(int(rowsI), int(bCuts[nJ]))
	panel.Idx = make([]int, 0, panelNNZ)
	panel.Val = make([]float64, 0, panelNNZ)
	for r := 0; r < int(rowsI); r++ {
		for J := 0; J < nJ; J++ {
			idx, val, err := streams[J].NextRow()
			if err != nil {
				return fmt.Errorf("ooc: spill tile (%d,%d) row %d: %v", I, J, r, err)
			}
			off := int(bCuts[J])
			for k := range idx {
				idx[k] += off
			}
			panel.AppendRow(r, idx, val)
		}
	}
	if err := emit(lo, hi, panel); err != nil {
		return err
	}
	d := time.Since(t0)
	e.stats.MergeSeconds += d.Seconds()
	rec.Observe(trace.PhaseOOCMerge, panelNNZ, d)
	return nil
}

// noteLoaded and noteSpilled bump the byte counters in both the stats and
// the trace recorder.
func (e *Engine) noteLoaded(n int64) {
	e.stats.BytesLoaded += n
	e.opts.Trace.Add(trace.CounterOOCBytesLoaded, n)
}

func (e *Engine) noteSpilled(n int64) {
	e.stats.BytesSpilled += n
	e.opts.Trace.Add(trace.CounterOOCBytesSpill, n)
}

// span is a half-open row range.
type span struct {
	lo, hi int64
}

// ranges converts cut points into the panel ranges they bound.
func ranges(cuts []int64) []span {
	out := make([]span, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		out = append(out, span{cuts[i], cuts[i+1]})
	}
	return out
}
