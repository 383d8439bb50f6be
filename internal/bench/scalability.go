package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// fig15 reproduces Figure 15: Block Reorganizer scalability across the
// three GPU generations.
func fig15() Experiment {
	return Experiment{
		ID:          "fig15",
		Title:       "Figure 15: performance scalability on various GPUs",
		Expectation: "Block Reorganizer beats the row-product baseline on every device — 1.43x on TITAN Xp, 1.66x on Tesla V100, 1.40x on RTX 2080 Ti — while the outer-product baseline stays near 1.0x",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.RealWorld())
			if err != nil {
				return nil, err
			}
			// One grid over every device loads each dataset once.
			devs := gpusim.Presets()
			var runs []run
			for _, dev := range devs {
				runs = append(runs, lineup(dev)...)
			}
			res, err := cfg.grid(cfg.squares(specs), runs...)
			if err != nil {
				return nil, err
			}
			t := tableio.New(fmt.Sprintf("Figure 15 — mean speedup vs row-product per device (scale 1/%d)", cfg.Scale), lineupColumns("device")...)
			n := len(runs) / len(devs)
			for d, dev := range devs {
				grid := make([][]float64, len(res))
				for si, line := range res {
					grid[si] = speedups(line[d*n : (d+1)*n])
				}
				t.AddRow(f2Row(means(grid), dev.Name)...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}
