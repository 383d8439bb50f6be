// Package ooc is the out-of-core spGEMM engine: memory-budgeted streaming
// multiplication of sparse matrices whose CSR representations exceed
// physical RAM.
//
// The engine partitions A into row panels and B into column panels sized
// by a byte Budget and streams panel pairs through the in-memory planned
// multiply (blockreorg.PlanCache.Multiply, keyed on the tile pair's
// structure, so iterative workloads reuse tile preprocessing across
// iterations; the multiply runs on the tile loop's goroutine). The tile loop runs one row panel at a
// time: A's panel I meets every B column panel, and output row panel I is
// emitted before panel I+1 is loaded — streamed to disk in the segmented
// container format, or kept until the loop ends and then copied into a
// product the caller gets as a *sparse.CSR, reserved once at the panels'
// exact total. When B fits one column
// panel, tile (I, 0) is row panel I itself: it is emitted as it stands,
// and the B panel and its fingerprint stay resident for the whole
// multiply. Wider grids spill each tile of panel I to the spill directory
// and merge them row-wise right after the panel's last tile, so at most
// one row panel's spills are on disk at a time.
//
// # Bit-identity
//
// A tile C[I,J] = A[I,:]×B[:,J] is a complete product — no partial sums
// cross tiles — and the planned engine sums every output entry's
// intermediate products in the canonical order (ascending k, B-row order
// within one k; see sparse.MultiplyConfigured). Column-slicing B drops
// contributions without reordering the survivors, so the reassembled
// out-of-core product is bit-identical to the in-memory blockreorg
// product and to sparse.Multiply for every budget and tile grid. Tests
// assert Identical — the same Ptr, Idx and value bits — not approximate
// agreement.
//
// # Memory accounting
//
// Every panel, tile and merge buffer the engine materializes is tracked
// by an Accountant; its high-water mark is surfaced through Stats and the
// ooc_peak_tracked_bytes trace gauge, and stays under the configured
// budget for any feasible grid. B is cut into column panels of a quarter
// of the budget. When it fits one, that panel is loaded first and stays
// resident, and A's row panels are cut so that one of them plus its
// estimated result tile fits in what B leaves: the budget minus the B
// panel's bytes. No merge runs on that path, so nothing else is charged.
// Wider grids split the budget into quarters: one for the resident A row
// panel, one for the resident B column panel, and two for the result
// tile plus merge working set. The inner multiplications' own scratch
// is not tracked; it grows with the tile. The write buffers of
// the segmented containers (64 KiB each, one per B column panel while B
// is resharded) are outside the accountant. Operands or results the
// caller holds in memory are the caller's, not the engine's — the
// accountant tracks the engine's working set, which is the quantity a
// bigger-than-RAM run needs bounded.
package ooc
