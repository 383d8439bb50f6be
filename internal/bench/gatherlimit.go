package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/tableio"
)

// fig13 reproduces Figure 13: sync-stall share before and after
// B-Gathering on the real-world datasets.
func fig13() Experiment {
	return Experiment{
		ID:          "fig13",
		Title:       "Figure 13: changes in sync stalls when applying B-Gathering",
		Expectation: "the sync-stall share of expansion drops sharply once underloaded blocks are gathered, leaving mostly memory stalls",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.RealWorld())
			if err != nil {
				return nil, err
			}
			t := tableio.New(fmt.Sprintf("Figure 13 — expansion sync-stall share before/after B-Gathering (scale 1/%d)", cfg.Scale),
				"dataset", "before", "after", "reduction")
			res, err := cfg.grid(cfg.squares(specs),
				reorg(cfg.Device, untransformed),
				reorg(cfg.Device, core.Params{DisableSplit: true, DisableLimit: true}))
			if err != nil {
				return nil, err
			}
			var beforeSum, afterSum float64
			count := 0
			for si, spec := range specs {
				b := res[si][0].report.Kernel("expand(reorganized)").SyncStallPct
				a := res[si][1].report.Kernel("expand(reorganized)").SyncStallPct
				beforeSum += b
				afterSum += a
				count++
				t.AddRow(spec.Name,
					fmt.Sprintf("%.1f%%", b), fmt.Sprintf("%.1f%%", a),
					fmt.Sprintf("%.1f pts", b-a))
			}
			if count > 0 {
				t.AddRow("average",
					fmt.Sprintf("%.1f%%", beforeSum/float64(count)),
					fmt.Sprintf("%.1f%%", afterSum/float64(count)), "")
			}
			return []*tableio.Table{t}, nil
		},
	}
}

// limitingFactors is the Figure 14 sweep: extra shared memory in units of
// 6144 bytes.
var limitingFactors = []int{0, 1, 2, 3, 4, 5, 6, 7}

// fig14 reproduces Figure 14: merge-phase L2 throughput versus the
// limiting factor on the Stanford datasets.
func fig14() Experiment {
	return Experiment{
		ID:          "fig14",
		Title:       "Figure 14: L2 cache throughput improvements using B-Limiting",
		Expectation: "merge L2 throughput rises with the limiting factor to an optimum (~4x6144B, read 1.49x / write 1.52x) and decays beyond it as occupancy loss outweighs contention relief",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.Skewed())
			if err != nil {
				return nil, err
			}
			cols := []string{"dataset", "metric"}
			for _, f := range limitingFactors {
				cols = append(cols, fmt.Sprintf("%dx6144", f))
			}
			t := tableio.New(fmt.Sprintf("Figure 14 — merge L2 throughput vs limiting factor (scale 1/%d)", cfg.Scale), cols...)
			var runs []run
			for _, f := range limitingFactors {
				runs = append(runs, reorg(cfg.Device, core.Params{
					DisableSplit: true, DisableGather: true,
					LimitFactor:  f,
					DisableLimit: f == 0,
				}))
			}
			res, err := cfg.grid(cfg.squares(specs), runs...)
			if err != nil {
				return nil, err
			}
			for si, spec := range specs {
				readRow := []string{spec.Name, "L2 read"}
				writeRow := []string{"", "L2 write"}
				timeRow := []string{"", "merge time"}
				for _, r := range res[si] {
					k := r.report.Kernel("merge(b-limiting)")
					readRow = append(readRow, tableio.GBs(k.L2ReadThroughput))
					writeRow = append(writeRow, tableio.GBs(k.L2WriteThroughput))
					timeRow = append(timeRow, tableio.Ms(k.Seconds))
				}
				t.AddRow(readRow...)
				t.AddRow(writeRow...)
				t.AddRow(timeRow...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}
