// Package pipeline is the graph-analytics engine: iterative spGEMM
// workloads built on top of the blockreorg multiplication stack.
//
// The paper motivates the Block Reorganizer with large-sparse-network
// workloads — multi-hop neighbor search, link prediction, clustering —
// whose common shape is a chain of sparse matrix products over the same
// network. This package expresses those chains as a Pipeline of composable
// Steps driven by a shared Runner:
//
//   - PowerIterate: A^k matrix powers and multi-hop reachability (optional
//     boolean semiring collapse and self-loop closure),
//   - MCL: Markov clustering — expansion via spGEMM, inflation via
//     elementwise power and column normalization, pruning, and a
//     chaos/idempotence convergence test,
//   - Similarity: common-neighbor and cosine scores via A·Aᵀ with
//     Hadamard post-filters for link prediction.
//
// The Runner is where the serving stack's machinery finally meets an
// iterative consumer. Every expansion step funnels through one multiply
// path, a per-run blockreorg.PlanCache's Multiply, keyed on the operands'
// structure fingerprints and the run's options: when an iteration
// multiplies operands whose sparsity
// pattern was seen before — a fixed operand in a power chain, or an MCL
// iterate whose structure has stabilized — the cached preprocessing plan
// is rebound to the new values (Plan.Rebind) and the precalculation phase
// is skipped entirely. Hits and misses are reported on the Result and, via
// Options.Trace, as pipeline_plan_hits / pipeline_plan_misses counters.
//
// Tracing threads through every iteration: each step records a span under
// the pipeline.* taxonomy (pipeline.expand, pipeline.inflate,
// pipeline.prune, pipeline.converge), and the multiplications inside
// record their own phase spans on the same recorder, so one profile shows
// both the workload's step structure and the per-phase cost of the
// multiplies. The dense per-column scratch of the convergence sweep cycles
// through the internal/parallel arenas rather than allocating per
// iteration.
//
// Results are deterministic and independent of parallelism: every numeric
// path below the Runner is bit-identical between its sequential and
// work-stealing executions, so a clustering computed with Options.Workers
// = 1 matches one computed on the default executor bit for bit, plan
// reuse included.
package pipeline
