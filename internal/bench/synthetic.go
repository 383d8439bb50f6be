package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/sparse"
)

// fig16a reproduces Figure 16(a): C = A² speedups on the synthetic S
// (scalability), P (skewness) and SP (sparsity) series.
func fig16a() Experiment {
	return Experiment{
		ID:          "fig16a",
		Title:       "Figure 16(a): speedups on synthetic datasets, C = A²",
		Expectation: "cuSPARSE wins only on the smallest matrix and collapses as size grows; Block Reorganizer gains grow with size, skewness and sparsity; bhSPARSE is relatively strong on the densest SP entries",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			var specs []datasets.SynthSpec
			var ds []dataset
			for _, spec := range datasets.Synthetic() {
				if len(cfg.Datasets) > 0 && !contains(cfg.Datasets, spec.Name) {
					continue
				}
				specs = append(specs, spec)
				ds = append(ds, dataset{name: spec.Name, load: func() (*sparse.CSR, *sparse.CSR, error) {
					m, err := spec.Generate(cfg.Scale)
					return m, m, err
				}})
			}
			res, err := cfg.grid(ds, lineup(cfg.Device)...)
			if err != nil {
				return nil, err
			}
			t := tableio.New(fmt.Sprintf("Figure 16(a) — synthetic C=A² speedup vs row-product (scale 1/%d)", cfg.Scale), lineupColumns("dataset", "series")...)
			for si, spec := range specs {
				t.AddRow(f2Row(speedups(res[si]), spec.Name, spec.Series)...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}

// fig16b reproduces Figure 16(b): C = AB speedups on the R-MAT pairs of
// scale 15–18.
func fig16b() Experiment {
	return Experiment{
		ID:          "fig16b",
		Title:       "Figure 16(b): speedups on synthetic datasets, C = AB",
		Expectation: "Block Reorganizer achieves ~1.09x average over the row-product baseline, best of the line-up, with gains scaling with input size; B-Gathering does most of the work because AB products are underloaded-block heavy",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			// Map the config's dataset scale divisor onto an R-MAT scale
			// reduction (each step halves the dimension).
			down := 0
			for s := 1; s < cfg.Scale; s *= 2 {
				down++
			}
			pairs := datasets.ABPairs()
			ds := make([]dataset, len(pairs))
			for i, pair := range pairs {
				ds[i] = dataset{name: "AB-" + pair.Name(), load: func() (*sparse.CSR, *sparse.CSR, error) {
					return pair.Generate(down)
				}}
			}
			res, err := cfg.grid(ds, lineup(cfg.Device)...)
			if err != nil {
				return nil, err
			}
			t := tableio.New(fmt.Sprintf("Figure 16(b) — synthetic C=AB speedup vs row-product (scale -%d)", down), lineupColumns("scale")...)
			grid := make([][]float64, len(res))
			for i, line := range res {
				grid[i] = speedups(line)
				t.AddRow(f2Row(grid[i], pairs[i].Name())...)
			}
			if len(grid) > 0 {
				t.AddRow(f2Row(means(grid), "average")...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}
