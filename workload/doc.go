// Package workload is the serving layer's evaluation backbone: spec-driven
// load generation, request-trace record/replay, SLO scoring, and simulator
// calibration.
//
// The pieces compose into one loop:
//
//   - A Spec (JSON) declares request classes — arrival process (Poisson,
//     Gamma or Weibull inter-arrivals), operand synthesis parameters drawn
//     from the genmat generator families, structure-churn behaviour, and
//     per-class SLO targets.
//   - Compile turns a Spec into a deterministic seeded request stream:
//     the same spec and seed always yield the same arrival times and the
//     same operand structures, so two load runs are comparable.
//   - The live runner in cmd/spgemmload issues the stream against a
//     spgemmd and collects one Record per request; spgemmd itself can
//     append the same Records server-side (spgemmd -trace-out). Records
//     are append-only JSONL — the trace format shared by every verb. This
//     package does no I/O over the network: the server imports it for
//     the record types, so it cannot import the server's client.
//   - Replay re-enacts a recorded trace through a deterministic virtual
//     queueing model (N workers, FIFO queue, recorded service times) at
//     original or scaled arrival tempo — capacity what-ifs without
//     touching a server, and byte-identical reports across runs.
//   - Score folds Records into per-class latency breakdowns (queue-wait
//     vs execute vs other; p50/p95/p99) and an SLO fitness score in [0,1].
//   - Calibrate compares gpusim-predicted kernel seconds against
//     host-measured execution seconds per class (MAPE, fitted MAPE after a
//     least-squares scale, and Pearson-r), quantifying how well the device
//     model ranks real workloads.
//
// cmd/spgemmload is the CLI over this package; DESIGN.md §14 describes the
// architecture and docs/CLI.md the verbs.
package workload
