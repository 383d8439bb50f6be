package bench

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/sparse"
)

// tab1 reproduces Table I: the evaluated system configurations.
func tab1() Experiment {
	return Experiment{
		ID:          "tab1",
		Title:       "Table I: target system configurations",
		Expectation: "three GPU systems: TITAN Xp (30 SMs), Tesla V100 (80 SMs), RTX 2080 Ti (68 SMs), plus the MKL host CPU",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			t := tableio.New("Table I — target system configurations",
				"device", "SMs", "cores/SM", "max clock (MHz)", "L2 (MiB)", "DRAM BW (GB/s)", "max threads/SM", "max blocks/SM", "smem/SM (KiB)")
			for _, d := range gpusim.Presets() {
				bw := d.DRAMBandwidth * d.ClockMHz * 1e6 / 1e9
				t.AddRow(d.Name,
					fmt.Sprintf("%d", d.NumSMs),
					fmt.Sprintf("%d", d.CoresPerSM),
					fmt.Sprintf("%.0f", d.ClockMHz),
					fmt.Sprintf("%.1f", float64(d.L2Size)/(1<<20)),
					fmt.Sprintf("%.0f", bw),
					fmt.Sprintf("%d", d.MaxThreadsPerSM),
					fmt.Sprintf("%d", d.MaxBlocksPerSM),
					fmt.Sprintf("%d", d.SharedMemPerSM>>10),
				)
			}
			cpu := kernels.XeonE5_2640v4()
			t.AddRow(cpu.Name, "-", fmt.Sprintf("%d cores", cpu.Cores),
				fmt.Sprintf("%.0f", cpu.ClockGHz*1e3), "-",
				fmt.Sprintf("%.0f", cpu.MemBandwidthGBs), "-", "-", "-")
			return []*tableio.Table{t}, nil
		},
	}
}

// tab2 reproduces Table II: the 28 real-world datasets, verifying that the
// synthetic stand-ins land on the published shapes.
func tab2() Experiment {
	return Experiment{
		ID:          "tab2",
		Title:       "Table II: real-world datasets (synthetic stand-ins)",
		Expectation: "19 regular Florida matrices and 9 skewed Stanford networks; stand-ins match dimension and nnz(A) at 1/scale and reproduce the family's skew",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			specs, err := selectedSpecs(cfg, datasets.RealWorld())
			if err != nil {
				return nil, err
			}
			t := tableio.New(
				fmt.Sprintf("Table II — real-world datasets at scale 1/%d", cfg.Scale),
				"name", "family", "dim (paper)", "nnz(A) (paper)", "nnz(C) (paper)", "dim (gen)", "nnz (gen)", "gini", "max row", "flops (gen)")
			// Generation and the O(flops) sweeps run per spec on the
			// executor; rows are emitted in catalog order afterwards.
			rows := make([][]string, len(specs))
			err = forEachSpec(cfg, len(specs), func(i int) error {
				s := specs[i]
				m, err := cfg.generate(s)
				if err != nil {
					return err
				}
				st := sparse.ComputeStats(m)
				flops, err := sparse.MultiplyFlops(m, m)
				if err != nil {
					return err
				}
				rows[i] = []string{s.Name, s.Family.String(),
					tableio.Count(int64(s.Rows)), tableio.Count(int64(s.NNZ)), tableio.Count(s.NNZC),
					tableio.Count(int64(m.Rows)), tableio.Count(int64(m.NNZ())),
					tableio.F2(st.Gini), tableio.Count(int64(st.MaxRowNNZ)), tableio.Count(flops)}
				return nil
			})
			if err != nil {
				return nil, err
			}
			for _, row := range rows {
				t.AddRow(row...)
			}
			return []*tableio.Table{t}, nil
		},
	}
}

// tab3 reproduces Table III: the synthetic dataset definitions.
func tab3() Experiment {
	return Experiment{
		ID:          "tab3",
		Title:       "Table III: synthetic datasets",
		Expectation: "S series scales size 250k..1M, P series sweeps R-MAT skewness, SP series sweeps sparsity 4M..1M, AB pairs scale 15-18 at edge factor 16",
		Run: func(cfg Config) ([]*tableio.Table, error) {
			cfg = cfg.normalize()
			t := tableio.New(
				fmt.Sprintf("Table III — synthetic datasets (C=A²) at scale 1/%d", cfg.Scale),
				"name", "series", "dim (spec)", "nnz (spec)", "params", "dim (gen)", "nnz (gen)", "gini")
			for _, s := range datasets.Synthetic() {
				m, err := s.Generate(cfg.Scale)
				if err != nil {
					return nil, err
				}
				st := sparse.ComputeStats(m)
				t.AddRow(s.Name, s.Series,
					tableio.Count(int64(s.N)), tableio.Count(int64(s.NNZ)),
					fmt.Sprintf("(%.2f,%.2f,%.2f,%.2f)", s.Params.A, s.Params.B, s.Params.C, s.Params.D),
					tableio.Count(int64(m.Rows)), tableio.Count(int64(m.NNZ())), tableio.F2(st.Gini))
			}
			ab := tableio.New("Table III — C=AB input pairs",
				"scale", "edge factor", "dim (spec)", "nnz target")
			for _, p := range datasets.ABPairs() {
				n := int64(1) << p.Scale
				ab.AddRow(p.Name(), fmt.Sprintf("%d", p.EdgeFactor),
					tableio.Count(n), tableio.Count(n*int64(p.EdgeFactor)))
			}
			return []*tableio.Table{t, ab}, nil
		},
	}
}
