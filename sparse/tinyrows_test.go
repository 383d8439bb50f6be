package sparse_test

import (
	"fmt"
	"testing"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// BenchmarkTinyRowMerge times the host merge of the rows of A² with at
// most sparse.SortRowMax products that the dense path runs branch-free —
// rows whose merged population nnz makes the whole occupancy bitmap hold
// at most 8 words per merged column, (cols+63)/64 <= 8·nnz — under forced
// sort and forced dense, binned by product count. It reports ns per
// product. The operands are the serve-churn and serve-repeat R-MAT shapes
// (seed 1) and mario002 at scale 32, whose rows are nearly all tiny.
func BenchmarkTinyRowMerge(b *testing.B) {
	type operand struct {
		name string
		m    *sparse.CSR
	}
	var ops []operand
	for _, shape := range []struct {
		name   string
		n, nnz int
	}{{"churn", 1024, 8192}, {"repeat", 2048, 16384}} {
		m, err := rmat.Generate(shape.n, shape.nnz, rmat.Default, 1)
		if err != nil {
			b.Fatal(err)
		}
		ops = append(ops, operand{shape.name, m})
	}
	spec, err := datasets.ByName("mario002")
	if err != nil {
		b.Fatal(err)
	}
	mario, err := spec.Generate(32)
	if err != nil {
		b.Fatal(err)
	}
	ops = append(ops, operand{"mario002", mario})

	ex := parallel.NewExecutor(1)
	for _, op := range ops {
		work, err := sparse.IntermediateRowNNZ(op.m, op.m)
		if err != nil {
			b.Fatal(err)
		}
		nnz, err := sparse.SymbolicRowNNZ(op.m, op.m)
		if err != nil {
			b.Fatal(err)
		}
		for _, bin := range [][2]int64{{0, 8}, {8, 16}, {16, sparse.SortRowMax}} {
			var rows, rowNNZ []int
			var products int64
			for i, w := range work {
				if w > bin[0] && w <= bin[1] && (op.m.Cols+63)>>6 <= nnz[i]<<3 {
					rows = append(rows, i)
					rowNNZ = append(rowNNZ, nnz[i])
					products += w
				}
			}
			if len(rows) == 0 {
				continue
			}
			a := op.m.SelectRows(rows)
			for _, kind := range []sparse.AccumulatorKind{sparse.AccumSort, sparse.AccumDense} {
				b.Run(fmt.Sprintf("%s/products<=%d/%v", op.name, bin[1], kind), func(b *testing.B) {
					cfg := sparse.MulConfig{Accum: kind, RowNNZ: rowNNZ}
					for range b.N {
						if _, err := sparse.MultiplyConfigured(a, op.m, ex, nil, cfg); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(products)/float64(b.N), "ns/product")
				})
			}
		}
	}
}
