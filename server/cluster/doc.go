// Package cluster shards spgemmd across N instances behind a routing
// front-end, the serving analogue of the paper's preprocessing economy:
// the Block Reorganizer's structure-dependent precalculation is expensive
// and reusable, and each instance's plan cache amortizes it only for the
// traffic that instance sees — so *where* a request lands decides whether
// it pays the cold path. The router's structure-affinity policy keeps
// same-fingerprint multiplies on the instance that already holds the
// rebindable plan, the spGEMM equivalent of prefix-affinity KV routing in
// LLM serving stacks.
//
// The pieces:
//
//   - Instance — one spgemmd behind a uniform transport: in-process
//     (wrapping a *server.Server directly, no sockets) or remote (an HTTP
//     base URL), so the same router fronts a sharded single binary and a
//     fleet of separate processes;
//   - Policy — a closed set of routing policies that NewPolicy builds
//     by name: round-robin, least-loaded
//     (outstanding jobs × estimated pending work), and structure-affinity
//     (a bounded fingerprint→instance table with least-loaded fallback
//     for cold structures);
//   - token-bucket admission — a cluster-wide rate limit in front of the
//     per-instance bounded queues, so a burst is rejected at the door
//     with 429 instead of saturating every shard;
//   - Router — the HTTP front-end: forwards multiply/pipeline
//     submissions, rewrites job ids so polls route back to the owning
//     instance, broadcasts matrix registrations, cordons and drains
//     instances (one at a time or rolling across the cluster), and
//     aggregates every instance's /metrics under per-instance labels.
//
// # Observability
//
// The router's /metrics is built per scrape with internal/prom: its own
// series from Status, then each instance's exposition (size-capped; an
// oversize or failed scrape counts in cluster_scrape_failures) parsed,
// relabelled with instance="<name>" and merged. spgemmd_executor_* and
// spgemmd_arena_* are process-wide, so in-process instances all report the
// same totals; never sum them over instance.
//
// Construct an in-process cluster with NewInProcess, or wrap existing
// backends (local or remote) with New. docs/CLUSTER.md is the operator
// guide; DESIGN.md §16 records the architecture and the affinity-table
// consistency rules.
package cluster
