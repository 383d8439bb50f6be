package ooc

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/blockreorg/blockreorg"
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
	// reshard on disk instead of rebuilding it.
	bKey   *sparse.CSR
	bCuts  []int64
	bPaths []string
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
	for _, p := range e.bPaths {
		os.Remove(p)
	}
	e.bKey, e.bCuts, e.bPaths = nil, nil, nil
}

// Multiply computes C = A×B out of core and returns the assembled result.
// The product is bit-identical to blockreorg.Multiply and sparse.Multiply
// on the same operands, for every budget. The result matrix is the
// caller's; the engine's own working set stays within the budget.
//
// Passing the same b object to consecutive calls reuses its on-disk
// column reshard — the M ← M·A iteration pattern pays the reshard once.
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
	if e.bKey == b && len(e.bPaths) > 0 {
		e.stats.ReshardReuses++
	} else {
		e.dropReshard()
		cuts, paths, err := e.reshard(memSource{b})
		if err != nil {
			return nil, err
		}
		e.bKey, e.bCuts, e.bPaths = b, cuts, paths
	}
	flops, err := outEstimate(memSource{a}, memSource{b})
	if err != nil {
		return nil, err
	}
	g, err := e.tiles(memSource{a}, flops, e.bCuts, e.bPaths)
	if err != nil {
		g.removeSpills()
		return nil, err
	}
	result := sparse.NewCSR(a.Rows, b.Cols)
	result.Idx = make([]int, 0, g.nnz)
	result.Val = make([]float64, 0, g.nnz)
	row := 0
	err = e.merge(g, int64(b.Cols), func(_ int, panel *sparse.CSR) error {
		for r := 0; r < panel.Rows; r++ {
			idx, val := panel.Row(r)
			result.AppendRow(row, idx, val)
			row++
		}
		return nil
	})
	g.removeSpills()
	if err != nil {
		return nil, err
	}
	e.finish()
	return result, nil
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
	cuts, paths, err := e.reshard(fileSource{segB})
	if err != nil {
		return err
	}
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	flops, err := outEstimate(fileSource{segA}, fileSource{segB})
	if err != nil {
		return err
	}
	g, err := e.tiles(fileSource{segA}, flops, cuts, paths)
	defer g.removeSpills()
	if err != nil {
		return err
	}
	w, err := sparse.CreateSegmented(outPath, ha.Rows, hb.Cols)
	if err != nil {
		return err
	}
	err = e.merge(g, hb.Cols, func(I int, panel *sparse.CSR) error {
		return w.AppendPanel(g.aCuts[I], g.aCuts[I+1], panel)
	})
	if err != nil {
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

// reshard streams B's rows once and scatters them into one segmented
// scratch container per column panel, with column indices local to the
// panel. The tile loop then loads B[:, J] with a single sequential read.
func (e *Engine) reshard(b source) (cuts []int64, paths []string, err error) {
	rec := e.opts.Trace
	t0 := time.Now()
	rows, _ := b.dims()
	hist, err := b.colNNZ()
	if err != nil {
		return nil, nil, err
	}
	cuts = colCuts(hist, rows, e.shareB())
	nJ := len(cuts) - 1
	writers := make([]*sparse.SegWriter, nJ)
	defer func() {
		if err != nil {
			for _, w := range writers {
				if w != nil {
					w.Discard()
				}
			}
			for _, p := range paths {
				os.Remove(p)
			}
		}
	}()
	for J := 0; J < nJ; J++ {
		path := e.scratchPath(fmt.Sprintf("b-col-%04d.seg", J))
		w, werr := sparse.CreateSegmented(path, rows, cuts[J+1]-cuts[J])
		if werr != nil {
			return nil, nil, werr
		}
		writers[J] = w
		paths = append(paths, path)
	}
	var written int64
	for _, chunk := range ranges(b.rowCuts(e.shareB(), nil, 0)) {
		slab, lerr := b.loadRows(chunk.lo, chunk.hi)
		if lerr != nil {
			return nil, nil, lerr
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
				return nil, nil, aerr
			}
			written += pb
		}
		e.acct.Release(cb)
	}
	for _, w := range writers {
		if cerr := w.Close(); cerr != nil {
			return nil, nil, cerr
		}
	}
	e.noteSpilled(written)
	d := time.Since(t0)
	e.stats.ReshardSeconds += d.Seconds()
	rec.Observe(trace.PhaseOOCReshard, written, d)
	return cuts, paths, nil
}

// tileGrid is the spilled intermediate state of one multiplication: the
// panel boundaries plus one spill file per (I, J) tile.
type tileGrid struct {
	aCuts, bCuts []int64
	spill        [][]string
	// nnz counts the entries of every spilled tile: the product's nnz.
	nnz int64
}

// removeSpills deletes every spill file the grid still references.
func (g *tileGrid) removeSpills() {
	if g == nil {
		return
	}
	for _, row := range g.spill {
		for _, p := range row {
			if p != "" {
				os.Remove(p)
			}
		}
	}
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

// tiles runs the tile loop: for each A row panel, multiply against every
// resharded B column panel and spill the finished tile. Plans are cached
// by the panel pair's structure fingerprints and rebound on reuse.
func (e *Engine) tiles(a source, outWeight []int64, bCuts []int64, bPaths []string) (*tileGrid, error) {
	rec := e.opts.Trace
	aCuts := a.rowCuts(e.shareA(), outWeight, e.opts.Budget/4)
	nI, nJ := len(aCuts)-1, len(bCuts)-1
	e.stats.Grid = [2]int{nI, nJ}
	g := &tileGrid{aCuts: aCuts, bCuts: bCuts, spill: make([][]string, nI)}
	for I := range g.spill {
		g.spill[I] = make([]string, nJ)
	}
	for I := 0; I < nI; I++ {
		t0 := time.Now()
		aPanel, err := a.loadRows(aCuts[I], aCuts[I+1])
		if err != nil {
			return g, err
		}
		ab := csrBytes(aPanel)
		e.acct.Grab(ab)
		e.noteLoaded(ab)
		d := time.Since(t0)
		e.stats.LoadSeconds += d.Seconds()
		rec.Observe(trace.PhaseOOCLoad, ab, d)
		fpA := aPanel.StructureFingerprint()
		for J := 0; J < nJ; J++ {
			if err := e.tile(g, I, J, aPanel, fpA, bPaths[J]); err != nil {
				e.acct.Release(ab)
				return g, err
			}
		}
		e.acct.Release(ab)
	}
	return g, nil
}

// tile multiplies one (A panel, B panel) pair and spills the result.
func (e *Engine) tile(g *tileGrid, I, J int, aPanel *sparse.CSR, fpA uint64, bPath string) error {
	rec := e.opts.Trace
	t0 := time.Now()
	bPanel, err := sparse.ReadSegmentedFile(bPath)
	if err != nil {
		return err
	}
	bb := csrBytes(bPanel)
	e.acct.Grab(bb)
	defer e.acct.Release(bb)
	e.noteLoaded(bb)
	d := time.Since(t0)
	e.stats.LoadSeconds += d.Seconds()
	rec.Observe(trace.PhaseOOCLoad, bb, d)

	t0 = time.Now()
	mopts := blockreorg.Options{
		GPU:         e.opts.GPU,
		Workers:     e.opts.Workers,
		Paranoid:    e.opts.Paranoid,
		Accumulator: e.opts.Accumulator,
		Trace:       e.opts.Trace,
	}
	key, cacheable := blockreorg.PlanKeyFor(fpA, bPanel.StructureFingerprint(), mopts)
	if cacheable {
		mopts.Plan = e.plans.Bind(key, aPanel, bPanel)
	}
	res, err := blockreorg.Multiply(aPanel, bPanel, mopts)
	if err != nil {
		return err
	}
	if cacheable {
		e.plans.Put(key, res.ReusablePlan())
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
	tb := csrBytes(res.C)
	e.acct.Grab(tb)
	defer e.acct.Release(tb)
	d = time.Since(t0)
	e.stats.MultiplySeconds += d.Seconds()
	rec.Observe(trace.PhaseOOCMultiply, res.Flops, d)

	t0 = time.Now()
	path := e.scratchPath(fmt.Sprintf("c-%04d-%04d.seg", I, J))
	if err := sparse.WriteSegmentedFile(path, res.C, 0); err != nil {
		return err
	}
	g.spill[I][J] = path
	g.nnz += int64(res.C.NNZ())
	e.noteSpilled(tb)
	d = time.Since(t0)
	e.stats.SpillSeconds += d.Seconds()
	rec.Observe(trace.PhaseOOCSpill, tb, d)
	return nil
}

// merge reassembles the result row panel by row panel: the I-th panel's
// rows are the concatenation of the spilled tiles (I, 0..nJ) with each
// tile's local columns shifted to its panel start. Tiles are streamed row
// by row, so the resident merge state is one output panel plus the
// streams' pointer arrays. emit receives each finished panel in order.
func (e *Engine) merge(g *tileGrid, cols int64, emit func(I int, panel *sparse.CSR) error) error {
	for I := range g.spill {
		if err := e.mergePanel(g, I, cols, emit); err != nil {
			return err
		}
	}
	return nil
}

// mergePanel builds and emits output row panel I from its spilled tiles.
func (e *Engine) mergePanel(g *tileGrid, I int, cols int64, emit func(int, *sparse.CSR) error) error {
	rec := e.opts.Trace
	t0 := time.Now()
	nJ := len(g.spill[I])
	rowsI := g.aCuts[I+1] - g.aCuts[I]
	segs := make([]*sparse.SegFile, nJ)
	defer func() {
		for _, s := range segs {
			if s != nil {
				s.Close()
			}
		}
	}()
	streams := make([]*sparse.PanelRows, nJ)
	var tileBytes, ptrBytes int64
	for J := 0; J < nJ; J++ {
		s, err := sparse.OpenSegmented(g.spill[I][J])
		if err != nil {
			return err
		}
		segs[J] = s
		h := s.Header()
		if h.Rows != rowsI || h.Cols != g.bCuts[J+1]-g.bCuts[J] {
			return fmt.Errorf("ooc: spill tile (%d,%d) is %dx%d, want %dx%d",
				I, J, h.Rows, h.Cols, rowsI, g.bCuts[J+1]-g.bCuts[J])
		}
		streams[J], err = s.StreamPanel(0)
		if err != nil {
			return err
		}
		tileBytes += csrBytesFor(rowsI, h.NNZ)
		ptrBytes += 8 * (rowsI + 1)
	}
	e.acct.Grab(ptrBytes)
	defer e.acct.Release(ptrBytes)
	e.noteLoaded(tileBytes)

	var panelNNZ int64
	for J := range segs {
		panelNNZ += segs[J].Header().NNZ
	}
	panelBytes := csrBytesFor(rowsI, panelNNZ)
	e.acct.Grab(panelBytes)
	defer e.acct.Release(panelBytes)
	// The panel holds exactly the bytes charged above: its arrays are
	// reserved at panelNNZ and each tile's row segment appends straight
	// into them, with no growth and no staging copy. The column offset is
	// applied in the stream's row buffer, which is ours until the next
	// NextRow; AppendRow extends row r by one segment per tile.
	panel := sparse.NewCSR(int(rowsI), int(cols))
	panel.Idx = make([]int, 0, panelNNZ)
	panel.Val = make([]float64, 0, panelNNZ)
	for r := 0; r < int(rowsI); r++ {
		for J := 0; J < nJ; J++ {
			idx, val, err := streams[J].NextRow()
			if err != nil {
				return fmt.Errorf("ooc: spill tile (%d,%d) row %d: %v", I, J, r, err)
			}
			off := int(g.bCuts[J])
			for k := range idx {
				idx[k] += off
			}
			panel.AppendRow(r, idx, val)
		}
	}
	if err := emit(I, panel); err != nil {
		return err
	}
	for J := 0; J < nJ; J++ {
		segs[J].Close()
		segs[J] = nil
		os.Remove(g.spill[I][J])
		g.spill[I][J] = ""
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
