package bench

import (
	"fmt"
	"sort"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// fig3a reproduces Figure 3(a): per-SM execution time variance of
// outer-product expansion — regular datasets balance, skewed ones do not.
func fig3a() Experiment {
	return Experiment{
		ID:          "fig3a",
		Title:       "Figure 3(a): SM execution time variance of outer-product expansion",
		Expectation: "five Florida datasets show near-uniform SM busy times; the five Stanford ones are dominated by a few long-running SMs (loc-gowalla and as-caida under 20% utilization)",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			t := tableio.New("Figure 3(a) — outer-product expansion per-SM busy time (normalized to busiest SM)",
				"dataset", "family", "LBI", "SM util", "p25", "median", "p75", "profile")
			specs, err := motivationSpecs(cfg)
			if err != nil {
				return nil, err
			}
			res, err := cfg.grid(cfg.squares(specs), run{alg: kernels.OuterProduct{}, dev: cfg.Device})
			if err != nil {
				return nil, err
			}
			for i, spec := range specs {
				k := res[i][0].report.Kernel("expand(outer-product)")
				busy := append([]float64(nil), k.SMBusyCycles...)
				sort.Float64s(busy)
				max := busy[len(busy)-1]
				norm := func(v float64) float64 {
					if max == 0 {
						return 0
					}
					return v / max
				}
				t.AddRow(spec.Name, spec.Family.String(), tableio.F2(k.LBI),
					fmt.Sprintf("%.0f%%", k.LBI*100),
					tableio.F2(norm(busy[len(busy)/4])),
					tableio.F2(norm(busy[len(busy)/2])),
					tableio.F2(norm(busy[3*len(busy)/4])),
					tableio.Bar(k.LBI, 1, 20))
			}
			return []*tableio.Table{t}, nil
		},
	}
}

// fig3b reproduces Figure 3(b): the distribution of thread blocks over
// effective thread counts.
func fig3b() Experiment {
	return Experiment{
		ID:          "fig3b",
		Title:       "Figure 3(b): thread block distribution by effective threads",
		Expectation: "for most matrices the bulk of outer-product blocks have fewer than 32 effective threads",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			t := tableio.New("Figure 3(b) — share of outer-product blocks per effective-thread bin",
				"dataset", "1-2", "3-4", "5-8", "9-16", "17-32", ">32", "<32 total")
			specs, err := motivationSpecs(cfg)
			if err != nil {
				return nil, err
			}
			for _, spec := range specs {
				m, err := cfg.generate(spec)
				if err != nil {
					return nil, err
				}
				cls, err := core.Classify(m.ToCSC(), m, core.Params{NumSMs: cfg.Device.NumSMs})
				if err != nil {
					return nil, err
				}
				bins := make([]int, 6) // 1-2, 3-4, 5-8, 9-16, 17-32, >32
				total := 0
				for k, w := range cls.Work {
					if w == 0 {
						continue
					}
					total++
					eff := cls.EffThreads[k]
					switch {
					case eff <= 2:
						bins[0]++
					case eff <= 4:
						bins[1]++
					case eff <= 8:
						bins[2]++
					case eff <= 16:
						bins[3]++
					case eff <= 32:
						bins[4]++
					default:
						bins[5]++
					}
				}
				if total == 0 {
					continue
				}
				pct := func(n int) string { return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total)) }
				under := bins[0] + bins[1] + bins[2] + bins[3]
				// Blocks with 17..31 effective threads are also under the
				// warp size; approximate the bin split at 32.
				t.AddRow(spec.Name, pct(bins[0]), pct(bins[1]), pct(bins[2]), pct(bins[3]), pct(bins[4]), pct(bins[5]), pct(under))
			}
			return []*tableio.Table{t}, nil
		},
	}
}

// fig3c reproduces Figure 3(c): expansion vs merge time split of the
// outer-product baseline.
func fig3c() Experiment {
	return Experiment{
		ID:          "fig3c",
		Title:       "Figure 3(c): execution time split between expansion and merge",
		Expectation: "the split varies per dataset; merge dominates where the output rows are long (high nnz amplification)",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			t := tableio.New("Figure 3(c) — outer-product baseline time split",
				"dataset", "expansion", "merge", "expansion %", "merge %")
			specs, err := motivationSpecs(cfg)
			if err != nil {
				return nil, err
			}
			res, err := cfg.grid(cfg.squares(specs), run{alg: kernels.OuterProduct{}, dev: cfg.Device})
			if err != nil {
				return nil, err
			}
			for i, spec := range specs {
				rep := res[i][0].report
				exp := rep.PhaseSeconds(gpusim.PhaseExpansion)
				mrg := rep.PhaseSeconds(gpusim.PhaseMerge)
				tot := exp + mrg
				if tot == 0 {
					continue
				}
				t.AddRow(spec.Name, tableio.Ms(exp), tableio.Ms(mrg),
					fmt.Sprintf("%.0f%%", 100*exp/tot), fmt.Sprintf("%.0f%%", 100*mrg/tot))
			}
			return []*tableio.Table{t}, nil
		},
	}
}

// contains reports whether names includes name.
func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
