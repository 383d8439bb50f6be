package pipeline

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/blockreorg/blockreorg"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 42)) }

// randomCSR builds a random rows×cols matrix with the given fill density
// and values in (0, 1] (nonnegative so every workload accepts it).
func randomCSR(rng *rand.Rand, rows, cols int, density float64) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols, int(float64(rows*cols)*density)+1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.Float64()+0.01)
			}
		}
	}
	return coo.ToCSR()
}

// testGraph is the seeded R-MAT community graph the clustering tests
// share: a symmetrized power-law network with unit weights.
func testGraph(t *testing.T, n, nnz int, seed uint64) *sparse.CSR {
	t.Helper()
	g, err := rmat.Generate(n, nnz, rmat.Default, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err = g.Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	g.Fill(1)
	return g
}

func TestRunnerValidation(t *testing.T) {
	r := NewRunner(Options{})
	m := sparse.Identity(3)
	cases := []struct {
		name string
		p    *Pipeline
		st   *State
	}{
		{"nil pipeline", nil, &State{M: m}},
		{"no steps", &Pipeline{Name: "x"}, &State{M: m}},
		{"nil state", &Pipeline{Name: "x", Steps: []Step{CollapseStep{}}}, nil},
		{"no iterate", &Pipeline{Name: "x", Steps: []Step{CollapseStep{}}}, &State{}},
	}
	for _, tc := range cases {
		if _, err := r.Run(context.Background(), tc.p, tc.st); !errors.Is(err, blockreorg.ErrInvalidOptions) {
			t.Errorf("%s: got %v, want ErrInvalidOptions", tc.name, err)
		}
	}
}

func TestRunnerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := randomCSR(testRNG(1), 20, 20, 0.2)
	if _, err := PowerIterate(ctx, a, 4, PowerOptions{}, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunnerExpandWithoutOperand(t *testing.T) {
	r := NewRunner(Options{})
	p := &Pipeline{Name: "x", MaxIterations: 1, Steps: []Step{ExpandStep{}}}
	_, err := r.Run(context.Background(), p, &State{M: sparse.Identity(3)})
	if !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("expand with nil A: got %v, want ErrInvalidOptions", err)
	}
}

func TestRunnerNegativeWorkers(t *testing.T) {
	a := randomCSR(testRNG(2), 10, 10, 0.3)
	_, err := PowerIterate(context.Background(), a, 3, PowerOptions{}, Options{Workers: -1})
	if !errors.Is(err, blockreorg.ErrInvalidOptions) {
		t.Fatalf("got %v, want ErrInvalidOptions", err)
	}
}

func TestRunnerIterationStats(t *testing.T) {
	a := testGraph(t, 64, 256, 7)
	res, err := MCL(context.Background(), a, MCLOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != res.Iterations {
		t.Fatalf("got %d iteration stats for %d iterations", len(res.Iters), res.Iterations)
	}
	for i, it := range res.Iters {
		if it.Iteration != i+1 {
			t.Fatalf("iteration %d numbered %d", i+1, it.Iteration)
		}
		if it.Multiplies != 1 {
			t.Fatalf("iteration %d ran %d multiplies, want 1", it.Iteration, it.Multiplies)
		}
		if it.Flops <= 0 {
			t.Fatalf("iteration %d has no flops", it.Iteration)
		}
	}
	if res.PlanHits+res.PlanMisses != res.Iterations {
		t.Fatalf("hits %d + misses %d != iterations %d", res.PlanHits, res.PlanMisses, res.Iterations)
	}
}

func TestRunnerTraceCountersAndSpans(t *testing.T) {
	a := testGraph(t, 64, 256, 11)
	rec := blockreorg.NewTrace()
	res, err := MCL(context.Background(), a, MCLOptions{}, Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	prof := rec.Profile()
	if got := prof.Counters["pipeline_iterations"]; got != int64(res.Iterations) {
		t.Fatalf("pipeline_iterations counter %d, want %d", got, res.Iterations)
	}
	if got := prof.Counters["pipeline_plan_hits"]; got != int64(res.PlanHits) {
		t.Fatalf("pipeline_plan_hits counter %d, want %d", got, res.PlanHits)
	}
	if got := prof.Counters["pipeline_plan_misses"]; got != int64(res.PlanMisses) {
		t.Fatalf("pipeline_plan_misses counter %d, want %d", got, res.PlanMisses)
	}
	want := map[string]bool{
		"pipeline.expand": false, "pipeline.inflate": false,
		"pipeline.prune": false, "pipeline.converge": false,
	}
	for _, ph := range prof.Phases {
		if _, ok := want[ph.Phase]; ok {
			want[ph.Phase] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("profile is missing the %s span", name)
		}
	}
}
