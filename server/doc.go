// Package server implements spgemmd, a concurrent spGEMM serving layer on
// top of the blockreorg library: an HTTP service that accepts multiply
// jobs against named matrices (or uploaded COO payloads), runs them on a
// pool of workers each owning a simulated device, and reuses the Block
// Reorganizer's front-loaded preprocessing across requests through a
// structure-keyed plan cache.
//
// The pieces:
//
//   - Registry — named operand matrices, loaded from Matrix Market or
//     segmented container files or registered over the API, each
//     carrying its structure fingerprint;
//   - the plan cache — a blockreorg.PlanCache (the LRU shared with the
//     pipeline runner and the out-of-core engine) of reusable
//     preprocessing plans, keyed on the operands' sparsity fingerprints
//     plus the device and tuning that shaped the plan; every multiply job
//     runs through its Multiply method;
//   - Server — request admission (bounded queue, per-request deadlines,
//     429 on saturation), the worker pool, job tracking, graceful drain,
//     and the /healthz and /metrics endpoints;
//   - Client — the typed client for the HTTP API, used by spgemmctl and
//     spgemmload: one method per endpoint over the wire types defined
//     here, with non-2xx answers returned as a *StatusError.
//
// # Observability
//
// Every job runs under a phase-level trace recorder (internal/trace).
// /metrics exposes the aggregate as Prometheus histograms — per-algorithm
// service latency (spgemmd_job_seconds) and per-phase host time
// (spgemmd_phase_seconds), alongside queue, plan-cache and execution-engine
// counters — and a request that sets "profile": true gets its own phase
// breakdown back in the job result. The families live in an
// internal/prom registry, which owns the text format: a scrape snapshots
// the registry and writes after releasing its lock, so a client that stops
// reading never stalls a worker. Multiply and pipeline jobs share one
// lifecycle (admission, queue wait, failure classification, completion),
// so every counter has a single writer. The standard Go runtime profiles
// are served under /debug/pprof/.
package server
