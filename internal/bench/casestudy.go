package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// caseStudy reproduces the §IV-E walkthrough: the YouTube dataset's
// classification populations and per-technique gains.
func caseStudy() Experiment {
	return Experiment{
		ID:    "casestudy",
		Title: "Section IV-E: YouTube walkthrough",
		Expectation: "paper (full size): 713 dominators, 362736 low performers, 12657 limited rows; " +
			"B-Splitting +10.4% (SM utilization 16%→99%), B-Gathering +6.7%, B-Limiting +16.8%, combined +41.5%",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			spec, err := datasets.ByName("youtube")
			if err != nil {
				return nil, err
			}
			res, err := cfg.get(cfg.square(spec),
				reorg(cfg.Device, core.Params{}),
				reorg(cfg.Device, untransformed),
				reorg(cfg.Device, core.Params{DisableGather: true, DisableLimit: true}),
				reorg(cfg.Device, core.Params{DisableSplit: true, DisableLimit: true}),
				reorg(cfg.Device, core.Params{DisableSplit: true, DisableGather: true}))
			if err != nil {
				return nil, err
			}
			full, none := res[0], res[1]
			st := full.planStats

			pops := tableio.New(fmt.Sprintf("YouTube case study — classification populations (scale 1/%d)", cfg.Scale),
				"population", "measured", "paper (full size)")
			pops.AddRow("pairs", tableio.Count(int64(st.Pairs)), "1.1M")
			pops.AddRow("dominators", tableio.Count(int64(st.Dominators)), "713")
			pops.AddRow("low performers", tableio.Count(int64(st.LowPerformers)), "362,736")
			pops.AddRow("limited merge rows", tableio.Count(int64(st.LimitedRows)), "12,657")
			pops.AddRow("split blocks", tableio.Count(int64(st.SplitBlocks)), "-")
			pops.AddRow("combined blocks", tableio.Count(int64(st.CombinedBlocks)), "-")

			// Per-technique gains over the untransformed outer product.
			gain := func(r result) float64 { return 100 * (none.seconds()/r.seconds() - 1) }
			split, gather, limit, all := gain(res[2]), gain(res[3]), gain(res[4]), gain(full)

			// SM utilization of the dominator expansion, unsplit vs split.
			utilBase, utilFull := 0.0, 0.0
			if k := none.report.Kernel("expand(dominators)"); k != nil {
				utilBase = k.LBI
			}
			if k := full.report.Kernel("expand(dominators)"); k != nil {
				utilFull = k.LBI
			}

			gains := tableio.New("YouTube case study — per-technique gains over the outer-product baseline",
				"technique", "measured", "paper")
			gains.AddRow("B-Splitting", fmt.Sprintf("%+.1f%%", split), "+10.4%")
			gains.AddRow("B-Gathering", fmt.Sprintf("%+.1f%%", gather), "+6.7%")
			gains.AddRow("B-Limiting", fmt.Sprintf("%+.1f%%", limit), "+16.8%")
			gains.AddRow("combined", fmt.Sprintf("%+.1f%%", all), "+41.5%")
			gains.AddRow("SM utilization (expansion)",
				fmt.Sprintf("%.0f%% -> %.0f%%", utilBase*100, utilFull*100), "16% -> 99%")
			return []*tableio.Table{pops, gains}, nil
		},
	}
}
