// Command inspect analyzes a sparse matrix the way the Block Reorganizer's
// preprocessing does: degree statistics, skewness, and the predicted
// dominator / normal / low-performer classification for a given alpha.
//
//	inspect -dataset as-caida -scale 8
//	inspect -f matrix.mtx -alpha 20 -sms 80
//	inspect -dataset youtube -profile
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
)

func main() {
	var (
		file    = flag.String("f", "", "matrix file: Matrix Market or segmented container")
		dataset = flag.String("dataset", "", "Table II dataset name")
		scale   = flag.Int("scale", 8, "dataset scale divisor (with -dataset)")
		alpha   = flag.Float64("alpha", 0, "dominator threshold divisor (0 = paper default)")
		beta    = flag.Float64("beta", 0, "limiting threshold multiplier (0 = paper default)")
		sms     = flag.Int("sms", 30, "SM count of the target GPU")
		profile = flag.Bool("profile", false, "trace the preprocessing phases and print the workload histogram")
	)
	flag.Parse()
	if err := run(os.Stdout, *file, *dataset, *scale, *alpha, *beta, *sms, *profile); err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, file, dataset string, scale int, alpha, beta float64, sms int, profile bool) error {
	var m *sparse.CSR
	var err error
	name := file
	switch {
	case dataset != "":
		spec, err2 := datasets.ByName(dataset)
		if err2 != nil {
			return err2
		}
		m, err = spec.Generate(scale)
		name = dataset
	case file != "":
		m, err = sparse.ReadFile(file)
	default:
		return fmt.Errorf("provide -f FILE or -dataset NAME")
	}
	if err != nil {
		return err
	}

	st := sparse.ComputeStats(m)
	stats := tableio.New(fmt.Sprintf("%s — distribution", name), "metric", "value")
	stats.AddRow("dimension", fmt.Sprintf("%dx%d", m.Rows, m.Cols))
	stats.AddRow("nnz", tableio.Count(int64(st.NNZ)))
	stats.AddRow("density", fmt.Sprintf("%.2e", st.Density))
	stats.AddRow("mean row nnz", fmt.Sprintf("%.2f", st.MeanRowNNZ))
	stats.AddRow("max row nnz", tableio.Count(int64(st.MaxRowNNZ)))
	stats.AddRow("p99 row nnz", tableio.Count(int64(st.P99RowNNZ)))
	stats.AddRow("gini", tableio.F2(st.Gini))
	stats.AddRow("hub ratio (top 1%)", fmt.Sprintf("%.1f%%", 100*st.HubRatio))
	stats.AddRow("rows under warp size", fmt.Sprintf("%.1f%%", 100*st.RowsUnderWarp))
	stats.AddRow("power-law alpha (MLE)", tableio.F2(st.PowerLawAlpha))
	stats.AddRow("skewed", fmt.Sprintf("%v", st.IsSkewed()))
	stats.Render(w)
	fmt.Fprintln(w)

	// The plan is built the way a Block Reorganizer run builds it — the
	// shared symbolic analysis feeding the plan build — and with -profile
	// under a recorder, so the phase table reflects real relative costs.
	var rec *trace.Recorder
	if profile {
		rec = trace.New()
	}
	plan, err := kernels.BuildPlan(m, m, kernels.Options{
		Core:  core.Params{Alpha: alpha, Beta: beta, NumSMs: sms},
		Trace: rec,
	})
	if err != nil {
		return err
	}
	ps := plan.Stats()
	cls := tableio.New(fmt.Sprintf("%s — Block Reorganizer classification for C=A² (SMs=%d)", name, sms), "population", "count", "share")
	share := func(n int) string {
		if ps.ActiveBlocks == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(ps.ActiveBlocks))
	}
	cls.AddRow("active pairs", tableio.Count(int64(ps.ActiveBlocks)), "100%")
	cls.AddRow("dominators", tableio.Count(int64(ps.Dominators)), share(ps.Dominators))
	cls.AddRow("normals", tableio.Count(int64(ps.Normals)), share(ps.Normals))
	cls.AddRow("low performers", tableio.Count(int64(ps.LowPerformers)), share(ps.LowPerformers))
	cls.AddRow("split blocks", tableio.Count(int64(ps.SplitBlocks)), "-")
	cls.AddRow("combined blocks", tableio.Count(int64(ps.CombinedBlocks)), "-")
	cls.AddRow("limited merge rows", tableio.Count(int64(ps.LimitedRows)), "-")
	cls.AddRow("nnz(Ĉ) products", tableio.Count(ps.TotalWork), "-")
	cls.AddRow("dominator threshold", tableio.Count(ps.Threshold), "-")
	cls.Render(w)

	if profile {
		fmt.Fprintln(w)
		renderPhases(w, rec.Profile())
		fmt.Fprintln(w)
		renderHistogram(w, plan)
	}
	return nil
}

// renderPhases prints the preprocessing phase breakdown recorded by the
// traced plan build.
func renderPhases(w io.Writer, p *trace.Profile) {
	t := tableio.New("Preprocessing phases (host wall time)", "phase", "calls", "ms", "share", "items")
	for _, b := range p.Phases {
		t.AddRow(b.Phase, fmt.Sprintf("%d", b.Calls), fmt.Sprintf("%.3f", b.Seconds*1e3),
			fmt.Sprintf("%.1f%%", 100*b.Share), tableio.Count(b.Items))
	}
	t.Render(w)
}

// renderHistogram prints the per-pair workload distribution in log2 buckets
// with the classification split — the shape the paper's thresholds cut.
func renderHistogram(w io.Writer, plan *core.Plan) {
	const buckets = 24 // 2^23 ≈ 8M products per pair tops out real grids
	type bin struct{ dom, norm, low int }
	hist := make([]bin, buckets)
	maxBucket := 0
	for k, w := range plan.Cls.Work {
		if w == 0 {
			continue
		}
		b := bits.Len64(uint64(w)) - 1 // floor(log2 w)
		if b >= buckets {
			b = buckets - 1
		}
		if b > maxBucket {
			maxBucket = b
		}
		switch plan.Cls.Category[k] {
		case core.Dominator:
			hist[b].dom++
		case core.Normal:
			hist[b].norm++
		case core.LowPerformer:
			hist[b].low++
		}
	}
	t := tableio.New("Pair workload histogram (log2 buckets of nnz(Ĉ) per pair)",
		"products", "pairs", "dominators", "normals", "low performers")
	for b := 0; b <= maxBucket; b++ {
		h := hist[b]
		n := h.dom + h.norm + h.low
		if n == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("2^%d..2^%d", b, b+1), tableio.Count(int64(n)),
			tableio.Count(int64(h.dom)), tableio.Count(int64(h.norm)), tableio.Count(int64(h.low)))
	}
	t.Render(w)
}
