package bench

import (
	"fmt"
	"time"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/ooc"
)

// OOCRun is one dataset's out-of-core A² under a byte budget, checked
// against the in-memory Block Reorganizer run of the same product.
type OOCRun struct {
	Dataset string
	Rows    int
	NNZ     int
	// Stats is the engine's own account of the run: tile grid, plan
	// cache traffic, bytes moved, peak tracked allocation.
	Stats ooc.Stats
	// InMemSeconds and OOCSeconds are host wall times for the two runs.
	InMemSeconds float64
	OOCSeconds   float64
	// Identical reports whether the out-of-core product matched the
	// in-memory one bit for bit (the engine's correctness contract).
	Identical bool
}

// RunOOC squares each selected dataset once in memory and once through
// the out-of-core tiled engine under the given budget, and reports what
// the tiling cost: grid shape, per-phase seconds, bytes streamed and
// spilled, peak tracked bytes against the budget, and whether the two
// products agreed exactly. Datasets run sequentially so wall times are
// not polluted by neighbors.
func RunOOC(cfg Config, budget int64) ([]OOCRun, error) {
	cfg = cfg.normalize()
	if budget <= 0 {
		return nil, fmt.Errorf("bench: out-of-core budget must be positive, got %d", budget)
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = reducedGrid()
	}
	var runs []OOCRun
	for _, name := range cfg.Datasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := cfg.generate(spec)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ref, err := blockreorg.Multiply(m, m, blockreorg.Options{
			GPU:         blockreorg.GPU(cfg.Device.Name),
			Workers:     cfg.Workers,
			Accumulator: cfg.Accum.String(),
		})
		if err != nil {
			return nil, fmt.Errorf("bench: in-memory %s: %w", name, err)
		}
		inMem := time.Since(start).Seconds()

		eng, err := ooc.New(ooc.Options{
			Budget:      budget,
			GPU:         blockreorg.GPU(cfg.Device.Name),
			Workers:     cfg.Workers,
			Accumulator: cfg.Accum.String(),
		})
		if err != nil {
			return nil, err
		}
		start = time.Now()
		c, err := eng.Multiply(m, m)
		oocWall := time.Since(start).Seconds()
		stats := eng.Stats()
		eng.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: out-of-core %s under %d bytes: %w", name, budget, err)
		}
		runs = append(runs, OOCRun{
			Dataset:      name,
			Rows:         m.Rows,
			NNZ:          m.NNZ(),
			Stats:        stats,
			InMemSeconds: inMem,
			OOCSeconds:   oocWall,
			Identical:    c.Equal(ref.C, 0),
		})
	}
	return runs, nil
}

// OOCTable renders the runs as one grid: tiling shape, plan cache
// traffic, streaming volume, phase wall times, and the bit-identity
// verdict per dataset.
func OOCTable(budget int64, runs []OOCRun) *tableio.Table {
	t := tableio.New(
		fmt.Sprintf("Out-of-core A² under a %d-byte budget vs in-memory", budget),
		"dataset", "rows", "nnz", "grid", "tiles", "plan h/m",
		"MB in", "MB spill", "peak/budget",
		"mem_ms", "ooc_ms", "load/reshard/mult/spill/merge ms", "identical")
	for _, r := range runs {
		s := r.Stats
		t.AddRow(r.Dataset,
			fmt.Sprintf("%d", r.Rows), fmt.Sprintf("%d", r.NNZ),
			fmt.Sprintf("%dx%d", s.Grid[0], s.Grid[1]),
			fmt.Sprintf("%d", s.Tiles),
			fmt.Sprintf("%d/%d", s.PlanHits, s.PlanMisses),
			fmt.Sprintf("%.2f", float64(s.BytesLoaded)/(1<<20)),
			fmt.Sprintf("%.2f", float64(s.BytesSpilled)/(1<<20)),
			fmt.Sprintf("%.2f", float64(s.PeakBytes)/float64(s.BudgetBytes)),
			fmt.Sprintf("%.1f", r.InMemSeconds*1e3),
			fmt.Sprintf("%.1f", r.OOCSeconds*1e3),
			fmt.Sprintf("%.1f/%.1f/%.1f/%.1f/%.1f",
				s.LoadSeconds*1e3, s.ReshardSeconds*1e3, s.MultiplySeconds*1e3,
				s.SpillSeconds*1e3, s.MergeSeconds*1e3),
			fmt.Sprintf("%v", r.Identical))
	}
	return t
}
