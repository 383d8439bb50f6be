package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// The ablation experiments go beyond the paper's figures: they sweep the
// design choices DESIGN.md calls out, on the skewed datasets where the
// choices matter.

// alphaSweep is the dominator-threshold divisor range, spanning "almost no
// dominators" to "a tenth of the pairs".
var alphaSweep = []float64{1, 2, 5, 10, 20, 40, 64}

// ablationAlpha sweeps α and reports speedup plus classification
// populations — the sensitivity the paper's §IV-B discusses but never
// plots.
func ablationAlpha() Experiment {
	return Experiment{
		ID:    "ablation-alpha",
		Title: "Extension: dominator threshold (α) sensitivity",
		Expectation: "speedup is flat across a wide α plateau (the paper picks per-network values by hand); " +
			"too-small α misses hubs, too-large α shreds mid-size pairs",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.Skewed())
			if err != nil {
				return nil, err
			}
			cols := []string{"dataset", "metric"}
			for _, a := range alphaSweep {
				cols = append(cols, fmt.Sprintf("α=%g", a))
			}
			t := tableio.New(fmt.Sprintf("α sensitivity — speedup vs outer-product and dominator counts (scale 1/%d)", cfg.Scale), cols...)
			runs := []run{{alg: kernels.OuterProduct{}, dev: cfg.Device}}
			for _, a := range alphaSweep {
				runs = append(runs, reorg(cfg.Device, core.Params{Alpha: a}))
			}
			res, err := cfg.grid(cfg.squares(specs), runs...)
			if err != nil {
				return nil, err
			}
			for si, spec := range specs {
				domRow := []string{"", "dominators"}
				for _, r := range res[si][1:] {
					domRow = append(domRow, fmt.Sprintf("%d", r.planStats.Dominators))
				}
				t.AddRow(f2Row(speedups(res[si])[1:], spec.Name, "speedup")...)
				t.AddRow(domRow...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}
