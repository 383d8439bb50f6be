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
			for _, spec := range specs {
				m, err := cfg.generate(spec)
				if err != nil {
					return nil, err
				}
				pc, err := kernels.Precompute(m, m)
				if err != nil {
					return nil, err
				}
				baseP, err := runAlg(kernels.OuterProduct{}, m, m, cfg, pc)
				if err != nil {
					return nil, err
				}
				base := baseP.Report.TotalSeconds()
				speedRow := []string{spec.Name, "speedup"}
				domRow := []string{"", "dominators"}
				run := func(p core.Params) error {
					prod, err := runReorganizer(m, m, cfg, kernels.Options{Core: p, Pre: pc})
					if err != nil {
						return err
					}
					speedRow = append(speedRow, tableio.F2(base/prod.Report.TotalSeconds()))
					domRow = append(domRow, fmt.Sprintf("%d", prod.PlanStats.Dominators))
					return nil
				}
				for _, a := range alphaSweep {
					if err := run(core.Params{Alpha: a}); err != nil {
						return nil, err
					}
				}
				t.AddRow(speedRow...)
				t.AddRow(domRow...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}
