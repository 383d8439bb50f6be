// Package blockreorg is a Go reproduction of "Optimization of GPU-based
// Sparse Matrix Multiplication for Large Sparse Networks" (Lee et al.,
// ICDE 2020): the Block Reorganizer optimization pass for outer-product
// sparse matrix-matrix multiplication, together with the baselines it is
// evaluated against, running on a deterministic cycle-approximate GPU
// simulator.
//
// The package computes real products — every algorithm's numeric output is
// the exact sparse product — while the timing side reports what the chosen
// algorithm would cost on the simulated device, exposing the paper's
// metrics (speedup, GFLOPS, load-balancing index, sync stalls, L2
// throughput).
//
// Quick start:
//
//	a, _ := rmat.PowerLaw(100_000, 1_000_000, 2.1, 42)
//	res, err := blockreorg.Multiply(a, a, blockreorg.Options{})
//	// res.C is A², res.GFLOPS/res.TotalSeconds describe the simulated run.
//
// # Plan reuse
//
// The Block Reorganizer's preprocessing depends only on the operands'
// sparsity structure, so it can be paid once and reused: NewPlan builds a
// reusable Plan, Plan.Rebind carries it to later operands with the same
// pattern, and Options.Plan drives a multiplication with it. PlanCache is
// that sequence behind one call: PlanCache.Multiply keys the request on
// the operands' structure fingerprints and plan-shaping options, rebinds
// a cached plan on a hit, and stores the run's plan. The server, the
// pipeline runner and the out-of-core engine all multiply through it.
//
// # Observability
//
// Options.Trace attaches a phase-level recorder (NewTrace) to a run: every
// pipeline stage — the symbolic sweeps, classification, B-Splitting,
// B-Gathering, B-Limiting, the simulated kernels, and the host-side
// numeric expansion — records its wall time and workload, and
// Trace.Profile folds them into a Profile. A nil Trace costs nothing. See
// DESIGN.md §11 for the span taxonomy.
//
// See the examples directory for complete programs, and docs/CLI.md for the
// command-line tools built on this API.
package blockreorg
