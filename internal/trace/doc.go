// Package trace is the library's phase-level observability layer: a
// lightweight span and counter recorder threaded through the multiplication
// pipeline, producing a structured Profile of where host time and workload
// go.
//
// The paper's contribution is a workload-shape diagnosis — pairs are
// classified into dominators, normals and low performers, and each pipeline
// phase (precalculation, B-Splitting, B-Gathering, the expansion launch,
// the B-Limited merge) is retimed after the transformation. Reproducing
// that argument requires phase-resolved measurement, not just end-to-end
// numbers, so the span taxonomy here is named after the paper's phases
// (see Phases) and every instrumented stage of the pipeline reports into
// it: the symbolic sweeps of the precalculation, plan construction
// (classification, splitting, gathering, limiting), the simulated kernel
// launches, and the host-side numeric product (expansion).
//
// # Cost model
//
// Tracing is strictly opt-in and free when off. Every method of Recorder
// is nil-safe: the instrumented code paths call
//
//	defer rec.Span(trace.PhaseExpansion)()
//
// unconditionally, and when rec is nil the call performs no allocation, no
// time measurement and no synchronization (verified by
// TestNilRecorderAllocs). When a recorder is attached, spans cost one
// mutex-guarded append each — negligible against the phases they measure,
// which sweep O(nnz) data.
//
// A Recorder is safe for concurrent use: phases running on the parallel
// executor's workers may open and close spans freely, and the aggregated
// Profile is deterministic regardless of interleaving (per-phase totals;
// span order within a phase is not part of the contract).
//
// # Profiles
//
// Recorder.Profile aggregates the recorded spans into per-phase wall time
// and item counts, plus the named counters (classification populations,
// nnz processed, executor steal/arena traffic) and gauges (thresholds and
// factors chosen). Profile marshals to stable JSON — the schema
// blockreorg-bench -profile emits and tests pin with a golden file — and
// renders as CSV for spreadsheet import.
//
// Consumers: blockreorg.Options.Trace attaches a recorder to one
// multiplication; cmd/blockreorg-bench -profile writes per-dataset phase
// breakdowns (PROFILE_host.json); cmd/inspect -profile prints the
// classification histogram of a matrix; the server package records a
// profile per job, feeds per-phase Prometheus histograms from it, and
// returns it in job results on request. DESIGN.md §11 documents how the
// taxonomy maps onto the paper's figures.
package trace
