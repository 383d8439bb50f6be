// Benchmarks that regenerate every table and figure of the paper's
// evaluation at a reduced dataset scale, one testing.B target per
// artifact, plus ablation benches for the design choices DESIGN.md calls
// out. Run the full-resolution versions with cmd/blockreorg-bench.
package blockreorg_test

import (
	"testing"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/bench"
	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// benchCfg runs experiments on a reduced grid: 1/16 scale with a dataset
// subset covering both families and all synthetic series.
func benchCfg() bench.Config {
	return bench.Config{
		Scale: 16,
		Datasets: []string{
			"harbor", "QCD", "mario002",
			"youtube", "as-caida", "slashDot",
			"s1", "s4", "p1", "p4", "sp1", "sp4",
		},
	}
}

// benchExperiment drives one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab01SystemConfigs(b *testing.B)     { benchExperiment(b, "tab1") }
func BenchmarkTab02RealWorldDatasets(b *testing.B) { benchExperiment(b, "tab2") }
func BenchmarkTab03SyntheticDatasets(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkFig03aSMVariance(b *testing.B)       { benchExperiment(b, "fig3a") }
func BenchmarkFig03bEffectiveThreads(b *testing.B) { benchExperiment(b, "fig3b") }
func BenchmarkFig03cPhaseSplit(b *testing.B)       { benchExperiment(b, "fig3c") }
func BenchmarkFig08Speedups(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig09GFLOPS(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10Techniques(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11SplittingFactor(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12SplittingL2(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13GatheringStalls(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14LimitingFactor(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15GPUScalability(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16aSyntheticSquare(b *testing.B)  { benchExperiment(b, "fig16a") }
func BenchmarkFig16bSyntheticAB(b *testing.B)      { benchExperiment(b, "fig16b") }
func BenchmarkCaseStudyYoutube(b *testing.B)       { benchExperiment(b, "casestudy") }

// BenchmarkAblationAlpha sweeps the dominator threshold divisor — the
// classification sensitivity DESIGN.md calls out.
func BenchmarkAblationAlpha(b *testing.B) {
	m, err := rmat.PowerLawCapped(20_000, 200_000, 1.95, 16, 1234)
	if err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{2, 10, 50} {
		b.Run(benchName("alpha", int(alpha)), func(b *testing.B) {
			opts := kernels.Options{Device: gpusim.TitanXp(), SkipValues: true, Core: core.Params{Alpha: alpha}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (kernels.Reorganizer{}).Multiply(m, m, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSplitHeuristic compares the greedy power-of-two factor
// selection against fixed factors.
func BenchmarkAblationSplitHeuristic(b *testing.B) {
	m, err := rmat.PowerLawCapped(20_000, 200_000, 1.95, 16, 1234)
	if err != nil {
		b.Fatal(err)
	}
	cases := map[string]core.Params{
		"greedy":  {},
		"fixed8":  {SplitFactorOverride: 8},
		"fixed64": {SplitFactorOverride: 64, MaxSplit: 64},
	}
	for name, params := range cases {
		b.Run(name, func(b *testing.B) {
			opts := kernels.Options{Device: gpusim.TitanXp(), SkipValues: true, Core: params}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (kernels.Reorganizer{}).Multiply(m, m, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationChunking measures the cost of exact per-block event
// simulation versus the default chunked dispatch.
func BenchmarkAblationChunking(b *testing.B) {
	m, err := rmat.PowerLawCapped(20_000, 200_000, 1.95, 16, 1234)
	if err != nil {
		b.Fatal(err)
	}
	for _, maxChunk := range []int{1, 1024} {
		b.Run(benchName("maxchunk", maxChunk), func(b *testing.B) {
			dev := gpusim.TitanXp()
			dev.MaxChunk = maxChunk
			opts := kernels.Options{Device: dev, SkipValues: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (kernels.Reorganizer{}).Multiply(m, m, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFacadeMultiply measures the end-to-end public API with value
// computation on a mid-size input.
func BenchmarkFacadeMultiply(b *testing.B) {
	spec, err := datasets.ByName("as-caida")
	if err != nil {
		b.Fatal(err)
	}
	m, err := spec.Generate(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blockreorg.Square(m, blockreorg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
