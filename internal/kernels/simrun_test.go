package kernels

import (
	"slices"
	"testing"

	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
)

// simRunShapes returns the launches of two cold Block Reorganizer runs:
// "tile", the first row panel of the analytics power chain's first step,
// and "churn", a serve-churn-shaped R-MAT square.
func simRunShapes(tb testing.TB) map[string][]*gpusim.Kernel {
	tb.Helper()
	shapes := map[string][]*gpusim.Kernel{}
	for _, c := range simGoldenCases(tb) {
		var name string
		switch c.name {
		case "power1-rows0":
			name = "tile"
		case "rmat1024-seed1":
			name = "churn"
		default:
			continue
		}
		plan, err := BuildPlan(c.a, c.b, Options{Device: gpusim.TitanXp()})
		if err != nil {
			tb.Fatal(err)
		}
		shapes[name] = planKernels(plan, sparse.AccumAuto)
	}
	return shapes
}

// BenchmarkSimulatorRun prices the expansion and merge launches of one
// tile-shaped and one churn-shaped cold run on TitanXp.
func BenchmarkSimulatorRun(b *testing.B) {
	shapes := simRunShapes(b)
	sim, err := gpusim.New(gpusim.TitanXp())
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"tile", "churn"} {
		ks := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, k := range ks {
					if _, err := sim.Run(k); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSimulatorRunAllocsBounded checks that what a launch allocates does
// not grow with its block counts: each tile and churn launch, with every
// class count multiplied by 10, allocates no more than the launch itself.
func TestSimulatorRunAllocsBounded(t *testing.T) {
	sim, err := gpusim.New(gpusim.TitanXp())
	if err != nil {
		t.Fatal(err)
	}
	for name, ks := range simRunShapes(t) {
		for _, k := range ks {
			scaled := &gpusim.Kernel{Name: k.Name, Phase: k.Phase, Blocks: slices.Clone(k.Blocks)}
			for i := range scaled.Blocks {
				scaled.Blocks[i].Count = max(scaled.Blocks[i].Count, 1) * 10
			}
			allocs := func(k *gpusim.Kernel) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := sim.Run(k); err != nil {
						t.Fatal(err)
					}
				})
			}
			if base, big := allocs(k), allocs(scaled); big > base {
				t.Errorf("%s %s: %v allocations with ten times the blocks, %v without", name, k.Name, big, base)
			}
		}
	}
}
