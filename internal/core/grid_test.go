package core

import (
	"testing"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

// TestGridBitIdentical sweeps the Table II dataset grid (downscaled) and
// requires the parallel host engine to reproduce both sequential oracles
// exactly — tolerance zero, structure and values to the last bit. The
// grid spans both families: Florida's banded regular meshes and
// Stanford's capped power-law networks, so the weighted chunking, the
// per-chunk arenas and the merge all see regular and hub-skewed shapes.
func TestGridBitIdentical(t *testing.T) {
	const scale = 100
	ex := parallel.NewExecutor(6)
	for _, spec := range datasets.RealWorld() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Generate(scale)
			if err != nil {
				t.Fatal(err)
			}

			// The engine called directly, against the sequential Multiply.
			want, err := sparse.Multiply(m, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sparse.MultiplyConfigured(m, m, ex, nil, sparse.MulConfig{Accum: sparse.AccumDense})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 0) {
				t.Fatal("MultiplyConfigured not bit-identical to Multiply")
			}

			// The engine through the plan (ExecuteOn), against the plan's
			// sequential block walk.
			plan, err := BuildPlan(m, m, Params{})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := plan.Execute(0)
			if err != nil {
				t.Fatal(err)
			}
			par, err := plan.ExecuteOn(ex, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := par.Validate(); err != nil {
				t.Fatal(err)
			}
			if !par.Equal(seq, 0) {
				t.Fatal("ExecuteOn not bit-identical to Execute")
			}
		})
	}
}
