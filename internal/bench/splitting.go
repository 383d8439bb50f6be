package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// splitFactors is the Figure 11/12 sweep range.
var splitFactors = []int{1, 2, 4, 8, 16, 32, 64}

// fig11 reproduces Figure 11: LBI and dominator execution time versus the
// splitting factor on the Stanford datasets.
func fig11() Experiment {
	return Experiment{
		ID:          "fig11",
		Title:       "Figure 11: load balancing effectiveness of B-Splitting",
		Expectation: "LBI rises from ~0.17 toward ~0.96 as the splitting factor approaches the SM count; dominator time improves ~8.68x on average, and keeps improving past 30 splits thanks to cache effects",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.Skewed())
			if err != nil {
				return nil, err
			}
			cols := []string{"dataset", "metric"}
			for _, f := range splitFactors {
				cols = append(cols, fmt.Sprintf("x%d", f))
			}
			t := tableio.New(fmt.Sprintf("Figure 11 — LBI and dominator speedup vs splitting factor (scale 1/%d)", cfg.Scale), cols...)
			var runs []run
			for _, f := range splitFactors {
				runs = append(runs, reorg(cfg.Device, core.Params{
					DisableGather: true, DisableLimit: true, SplitFactorOverride: f, MaxSplit: 64,
				}))
			}
			res, err := cfg.grid(cfg.squares(specs), runs...)
			if err != nil {
				return nil, err
			}
			var lbiFirst, lbiLast, domGain float64
			counted := 0
			for si, spec := range specs {
				lbiRow := []string{spec.Name, "LBI"}
				perfRow := []string{"", "dominator speedup"}
				var baseDom float64
				var firstL, lastL float64
				for i, r := range res[si] {
					k := r.report.Kernel("expand(dominators)")
					if k == nil {
						// No dominators on this input at this scale.
						lbiRow = append(lbiRow, "-")
						perfRow = append(perfRow, "-")
						continue
					}
					if i == 0 {
						baseDom = k.Seconds
						firstL = k.LBI
					}
					lastL = k.LBI
					lbiRow = append(lbiRow, tableio.F2(k.LBI))
					speedup := 0.0
					if k.Seconds > 0 {
						speedup = baseDom / k.Seconds
					}
					perfRow = append(perfRow, tableio.F2(speedup))
					if i == len(splitFactors)-1 && k.Seconds > 0 {
						domGain += baseDom / k.Seconds
						counted++
					}
				}
				lbiFirst += firstL
				lbiLast += lastL
				t.AddRow(lbiRow...)
				t.AddRow(perfRow...)
			}
			if n := float64(len(specs)); n > 0 {
				summary := tableio.New("Figure 11 — summary",
					"metric", "value", "paper")
				summary.AddRow("mean LBI at factor 1", tableio.F2(lbiFirst/n), "0.17")
				summary.AddRow("mean LBI at factor 64", tableio.F2(lbiLast/n), "0.96")
				if counted > 0 {
					summary.AddRow("mean dominator speedup at factor 64", tableio.F2(domGain/float64(counted)), "8.68x")
				}
				return []*tableio.Table{t, summary}, nil
			}
			return []*tableio.Table{t}, nil
		},
	}
}

// fig12 reproduces Figure 12: L2 cache throughput improvement from
// B-Splitting on the Stanford datasets.
func fig12() Experiment {
	return Experiment{
		ID:          "fig12",
		Title:       "Figure 12: L2 cache throughput improvement using B-Splitting",
		Expectation: "splitting raises expansion-phase L2 read+write throughput by ~8.9x on average across the Stanford datasets",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.Skewed())
			if err != nil {
				return nil, err
			}
			t := tableio.New(fmt.Sprintf("Figure 12 — expansion L2 throughput, split vs unsplit (scale 1/%d)", cfg.Scale),
				"dataset", "L2 read (unsplit)", "L2 read (split)", "L2 write (unsplit)", "L2 write (split)", "improvement")
			res, err := cfg.grid(cfg.squares(specs),
				reorg(cfg.Device, untransformed),
				reorg(cfg.Device, core.Params{DisableGather: true, DisableLimit: true}))
			if err != nil {
				return nil, err
			}
			var ratios float64
			counted := 0
			for si, spec := range specs {
				ku := res[si][0].report.Kernel("expand(dominators)")
				ks := res[si][1].report.Kernel("expand(dominators)")
				if ku == nil || ks == nil {
					continue
				}
				before := ku.L2ReadThroughput + ku.L2WriteThroughput
				after := ks.L2ReadThroughput + ks.L2WriteThroughput
				ratio := 0.0
				if before > 0 {
					ratio = after / before
					ratios += ratio
					counted++
				}
				t.AddRow(spec.Name,
					tableio.GBs(ku.L2ReadThroughput), tableio.GBs(ks.L2ReadThroughput),
					tableio.GBs(ku.L2WriteThroughput), tableio.GBs(ks.L2WriteThroughput),
					tableio.F2(ratio)+"x")
			}
			if counted > 0 {
				t.AddRow("average", "", "", "", "", tableio.F2(ratios/float64(counted))+"x")
			}
			return []*tableio.Table{t}, nil
		},
	}
}
