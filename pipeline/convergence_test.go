package pipeline

// Convergence edge cases: empty matrices, identity inputs, a single
// strongly-connected component, and the bit-identity of the power chain
// between the plan's sequential Execute path and the work-stealing
// ExecuteOn path.

import (
	"context"
	"testing"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

func TestMCLEmptyMatrix(t *testing.T) {
	// With self-loops an empty adjacency becomes the identity walk, which
	// is already idempotent: one iteration, n singletons.
	res, err := MCL(context.Background(), sparse.NewCSR(5, 5), MCLOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("empty+selfloops: converged=%v after %d iterations", res.Converged, res.Iterations)
	}
	if res.NumClusters != 5 {
		t.Fatalf("empty graph produced %d clusters, want 5 singletons", res.NumClusters)
	}
	// Without self-loops the iterate is genuinely empty; the idempotence
	// fallback must still stop the run on the empty fixpoint.
	res, err = MCL(context.Background(), sparse.NewCSR(4, 4), MCLOptions{NoSelfLoops: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("truly empty iterate never converged")
	}
	if res.M.NNZ() != 0 || res.NumClusters != 4 {
		t.Fatalf("empty limit: nnz=%d clusters=%d", res.M.NNZ(), res.NumClusters)
	}
}

func TestMCLIdentityInput(t *testing.T) {
	res, err := MCL(context.Background(), sparse.Identity(7), MCLOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("identity: converged=%v after %d iterations", res.Converged, res.Iterations)
	}
	if !res.M.Equal(sparse.Identity(7), 1e-12) {
		t.Fatal("identity input did not converge to the identity limit")
	}
	if res.NumClusters != 7 {
		t.Fatalf("identity produced %d clusters, want 7", res.NumClusters)
	}
}

func TestMCLSingleSCC(t *testing.T) {
	// A complete graph is one strongly-connected component and must
	// collapse into a single cluster.
	n := 8
	coo := sparse.NewCOO(n, n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				coo.Add(i, j, 1)
			}
		}
	}
	res, err := MCL(context.Background(), coo.ToCSR(), MCLOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("complete graph did not converge")
	}
	if res.NumClusters != 1 {
		t.Fatalf("complete graph split into %d clusters (%v)", res.NumClusters, res.Clusters)
	}
}

func TestPowerIterateEmptyMatrix(t *testing.T) {
	res, err := PowerIterate(context.Background(), sparse.NewCSR(6, 6), 4, PowerOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.M.NNZ() != 0 {
		t.Fatalf("0^4 has %d entries", res.M.NNZ())
	}
}

func TestPowerIterateIdentityFixpoint(t *testing.T) {
	res, err := PowerIterate(context.Background(), sparse.Identity(6), 10,
		PowerOptions{StopOnFixpoint: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("I^k: converged=%v after %d iterations, want immediate fixpoint", res.Converged, res.Iterations)
	}
	if !res.M.Equal(sparse.Identity(6), 0) {
		t.Fatal("identity power diverged from identity")
	}
}

// TestPowerIterateExecuteVsExecuteOnBitIdentity pins the determinism
// guarantee the workloads lean on: the same power chain produces
// bit-identical results whether its multiplies run sequentially (Workers
// 1, the inline executor) or on the work-stealing executor, and the
// underlying plan primitives Execute and ExecuteOn agree bit for bit on
// the chain's own product.
func TestPowerIterateExecuteVsExecuteOnBitIdentity(t *testing.T) {
	a := testGraph(t, 80, 400, 77)
	serial, err := PowerIterate(context.Background(), a, 5, PowerOptions{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallelRun, err := PowerIterate(context.Background(), a, 5, PowerOptions{}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.M.Identical(parallelRun.M) {
		t.Fatal("power chain differs between sequential and parallel executors")
	}

	// Same property one layer down, on the primitives themselves.
	pc, err := kernels.PrecomputeOn(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	params, err := (core.Params{NumSMs: 30}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlanCached(a, pc.ACSC, a, pc.RowWork, pc.RowNNZ, params)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plan.Execute(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.ExecuteOn(parallel.NewExecutor(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Identical(got) {
		t.Fatal("Execute and ExecuteOn disagree bitwise")
	}
}
