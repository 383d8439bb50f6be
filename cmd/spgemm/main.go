// Command spgemm multiplies two sparse matrices with a chosen spGEMM
// algorithm on a simulated GPU and prints the resulting profile.
//
// Inputs are matrix files (Matrix Market or segmented containers), or a
// named dataset from the paper's Table II catalog generated on the fly:
//
//	spgemm -a matrix.mtx -b other.mtx -alg Block-Reorganizer
//	spgemm -dataset youtube -scale 16 -gpu "Tesla V100" -compare
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/sparse"
)

func main() {
	var (
		aPath    = flag.String("a", "", "matrix file for A: Matrix Market or segmented container")
		bPath    = flag.String("b", "", "matrix file for B (default: A, computing A²)")
		dataset  = flag.String("dataset", "", "Table II dataset name to generate instead of reading files")
		scale    = flag.Int("scale", 8, "dataset scale divisor (with -dataset)")
		algName  = flag.String("alg", string(blockreorg.BlockReorganizer), "algorithm")
		gpu      = flag.String("gpu", string(blockreorg.TitanXp), "simulated GPU")
		compare  = flag.Bool("compare", false, "run all seven algorithms and print speedups")
		outPath  = flag.String("o", "", "write the product to this Matrix Market file")
		values   = flag.Bool("values", true, "compute numeric values (disable for timing-only)")
		accum    = flag.String("accum", "auto", "merge accumulator strategy: auto, dense, hash or sort")
		timeline = flag.Bool("timeline", false, "render a per-SM ASCII timeline of every kernel")
	)
	flag.Parse()
	if *timeline {
		if err := runTimeline(*aPath, *bPath, *dataset, *scale, *algName, *gpu); err != nil {
			fmt.Fprintf(os.Stderr, "spgemm: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*aPath, *bPath, *dataset, *scale, *algName, *gpu, *compare, *outPath, *values, *accum); err != nil {
		fmt.Fprintf(os.Stderr, "spgemm: %v\n", err)
		os.Exit(1)
	}
}

func run(aPath, bPath, dataset string, scale int, algName, gpu string, compare bool, outPath string, values bool, accum string) error {
	a, b, err := loadOperands(aPath, bPath, dataset, scale)
	if err != nil {
		return err
	}
	st := sparse.ComputeStats(a)
	fmt.Printf("A: %dx%d, nnz=%s, gini=%.2f, max row=%s\n",
		a.Rows, a.Cols, tableio.Count(int64(a.NNZ())), st.Gini, tableio.Count(int64(st.MaxRowNNZ)))
	if b != a {
		fmt.Printf("B: %dx%d, nnz=%s\n", b.Rows, b.Cols, tableio.Count(int64(b.NNZ())))
	}

	if compare {
		results, err := blockreorg.Compare(a, b, blockreorg.GPU(gpu))
		if err != nil {
			return err
		}
		t := tableio.New(fmt.Sprintf("C = A×B on %s", gpu),
			"algorithm", "time", "speedup vs row-product", "GFLOPS", "LBI(exp)", "sync stalls")
		var base *blockreorg.Result
		for _, r := range results {
			if r.Algorithm == blockreorg.RowProduct {
				base = r
			}
		}
		for _, r := range results {
			t.AddRow(string(r.Algorithm), tableio.Ms(r.TotalSeconds),
				tableio.F2(r.Speedup(base))+"x", tableio.F2(r.GFLOPS),
				tableio.F2(r.ExpansionLBI), fmt.Sprintf("%.1f%%", r.SyncStallPct))
		}
		t.Render(os.Stdout)
		return nil
	}

	res, err := blockreorg.Multiply(a, b, blockreorg.Options{
		Algorithm:   blockreorg.Algorithm(algName),
		GPU:         blockreorg.GPU(gpu),
		SkipValues:  !values,
		Accumulator: accum,
	})
	if err != nil {
		return err
	}
	fmt.Printf("algorithm : %s on %s\n", res.Algorithm, res.Device)
	fmt.Printf("flops     : %s multiply-adds, nnz(C)=%s\n", tableio.Count(res.Flops), tableio.Count(res.NNZC))
	fmt.Printf("time      : %s total (expansion %s, merge %s, host %s)\n",
		tableio.Ms(res.TotalSeconds), tableio.Ms(res.ExpansionSeconds),
		tableio.Ms(res.MergeSeconds), tableio.Ms(res.HostSeconds))
	fmt.Printf("throughput: %.2f GFLOPS, expansion LBI %.2f, sync stalls %.1f%%\n",
		res.GFLOPS, res.ExpansionLBI, res.SyncStallPct)
	if res.Plan != nil {
		fmt.Printf("plan      : %d dominators -> %d split blocks, %d low performers -> %d combined blocks, %d limited rows\n",
			res.Plan.Dominators, res.Plan.SplitBlocks, res.Plan.LowPerformers,
			res.Plan.CombinedBlocks, res.Plan.LimitedRows)
	}
	if outPath != "" && res.C != nil {
		if err := sparse.WriteMatrixMarketFile(outPath, res.C); err != nil {
			return err
		}
		fmt.Printf("wrote     : %s\n", outPath)
	}
	return nil
}

// runTimeline executes the multiplication with dispatch tracing enabled and
// renders each kernel's per-SM occupancy as an ASCII Gantt chart.
func runTimeline(aPath, bPath, dataset string, scale int, algName, gpu string) error {
	a, b, err := loadOperands(aPath, bPath, dataset, scale)
	if err != nil {
		return err
	}
	alg, err := kernels.ByName(algName)
	if err != nil {
		return err
	}
	dev, err := gpusim.ByName(gpu)
	if err != nil {
		return err
	}
	dev.TraceEvents = 20000
	p, err := alg.Multiply(a, b, kernels.Options{Device: dev, SkipValues: true})
	if err != nil {
		return err
	}
	for _, k := range p.Report.Kernels {
		fmt.Printf("\n[%s] %s — %s, LBI %.2f, occupancy %.0f%%\n",
			k.Phase, k.Name, tableio.Ms(k.Seconds), k.LBI, 100*k.Occupancy)
		fmt.Print(gpusim.RenderTimeline(k, 100))
	}
	return nil
}

// loadOperands resolves the A and B matrices from flags.
func loadOperands(aPath, bPath, dataset string, scale int) (a, b *sparse.CSR, err error) {
	switch {
	case dataset != "":
		spec, err := datasets.ByName(dataset)
		if err != nil {
			return nil, nil, err
		}
		a, err = spec.Generate(scale)
		if err != nil {
			return nil, nil, err
		}
		return a, a, nil
	case aPath != "":
		a, err = sparse.ReadFile(aPath)
		if err != nil {
			return nil, nil, err
		}
		if bPath == "" {
			return a, a, nil
		}
		b, err = sparse.ReadFile(bPath)
		if err != nil {
			return nil, nil, err
		}
		return a, b, nil
	default:
		return nil, nil, fmt.Errorf("provide -a FILE or -dataset NAME (see -h)")
	}
}
