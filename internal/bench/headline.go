package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// fig8 reproduces Figure 8: speedup of every method over the row-product
// baseline on the 28 real-world datasets.
func fig8() Experiment {
	return Experiment{
		ID:          "fig8",
		Title:       "Figure 8: speedup over the row-product baseline, 28 real-world datasets",
		Expectation: "averages — outer-product 0.95x, cuSPARSE 0.29x, CUSP 0.22x, bhSPARSE 0.55x, MKL 0.48x, Block Reorganizer 1.43x with the widest coverage of best-performer",
		Run:         runSpeedupGrid(false),
	}
}

// fig9 reproduces Figure 9: absolute GFLOPS on the same grid.
func fig9() Experiment {
	return Experiment{
		ID:          "fig9",
		Title:       "Figure 9: absolute performance (GFLOPS), 28 real-world datasets",
		Expectation: "same ordering as Figure 8 in absolute terms; Block Reorganizer peaks on large regular matrices",
		Run:         runSpeedupGrid(true),
	}
}

// lineupColumns is a line-up table's header: the leading columns, then
// one per algorithm in figure order.
func lineupColumns(lead ...string) []string {
	for _, alg := range kernels.All() {
		lead = append(lead, alg.Name())
	}
	return lead
}

// runSpeedupGrid renders the 28-dataset × 7-method grid, either as
// normalized speedups (fig8) or absolute GFLOPS (fig9).
func runSpeedupGrid(absolute bool) func(cfg Config) ([]*tableio.Table, error) {
	return func(cfg Config) ([]*tableio.Table, error) {
		cfg = cfg.normalize()
		specs, err := selectedSpecs(cfg, datasets.RealWorld())
		if err != nil {
			return nil, err
		}
		res, err := cfg.grid(cfg.squares(specs), lineup(cfg.Device)...)
		if err != nil {
			return nil, err
		}
		title := fmt.Sprintf("Figure 8 — speedup vs row-product (scale 1/%d, %s)", cfg.Scale, cfg.Device.Name)
		if absolute {
			title = fmt.Sprintf("Figure 9 — absolute GFLOPS (scale 1/%d, %s)", cfg.Scale, cfg.Device.Name)
		}
		t := tableio.New(title, lineupColumns("dataset")...)
		grid := make([][]float64, len(res))
		wins := make([]int, len(kernels.All()))
		for si, line := range res {
			vals := speedups(line)
			if absolute {
				for i, r := range line {
					vals[i] = r.report.GFLOPS(r.flops)
				}
			}
			grid[si] = vals
			best := 0
			for i, v := range vals {
				if v > vals[best] {
					best = i
				}
			}
			wins[best]++
			t.AddRow(f2Row(vals, specs[si].Name)...)
		}
		if len(grid) > 0 {
			winRow := []string{"best-on"}
			for _, n := range wins {
				winRow = append(winRow, fmt.Sprintf("%d", n))
			}
			t.AddRow(f2Row(means(grid), "average")...)
			t.AddRow(winRow...)
		}
		return []*tableio.Table{t}, nil
	}
}

// fig10 reproduces Figure 10: the contribution of each technique relative
// to the outer-product baseline.
func fig10() Experiment {
	return Experiment{
		ID:          "fig10",
		Title:       "Figure 10: relative performance of B-Splitting, B-Gathering, B-Limiting and the full Block Reorganizer",
		Expectation: "averages over the outer-product baseline — B-Limiting 1.05x, B-Splitting 1.05x, B-Gathering 1.28x, full Block Reorganizer 1.51x; splitting/limiting matter on skewed data, gathering has the widest coverage",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.RealWorld())
			if err != nil {
				return nil, err
			}
			variants := []struct {
				name string
				core core.Params
			}{
				{"B-Limiting", core.Params{DisableSplit: true, DisableGather: true}},
				{"B-Splitting", core.Params{DisableGather: true, DisableLimit: true}},
				{"B-Gathering", core.Params{DisableSplit: true, DisableLimit: true}},
				{"Block-Reorganizer", core.Params{}},
			}
			cols := []string{"dataset"}
			runs := []run{{alg: kernels.OuterProduct{}, dev: cfg.Device}}
			for _, v := range variants {
				cols = append(cols, v.name)
				runs = append(runs, reorg(cfg.Device, v.core))
			}
			res, err := cfg.grid(cfg.squares(specs), runs...)
			if err != nil {
				return nil, err
			}
			t := tableio.New(fmt.Sprintf("Figure 10 — technique speedups vs outer-product baseline (scale 1/%d)", cfg.Scale), cols...)
			grid := make([][]float64, len(res))
			for si, line := range res {
				grid[si] = speedups(line)[1:]
				t.AddRow(f2Row(grid[si], specs[si].Name)...)
			}
			if len(grid) > 0 {
				t.AddRow(f2Row(means(grid), "average")...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}
