// Package core implements the Block Reorganizer optimization pass of Lee et
// al. (ICDE 2020): the host-side preprocessing that turns an outer-product
// spGEMM launch into a load-balanced one.
//
// Given A (consumed column-wise) and B (row-wise), outer-product spGEMM
// assigns the pair (a_{*k}, b_{k*}) to thread block k; block k performs
// nnz(a_{*k})·nnz(b_{k*}) multiply-adds with nnz(b_{k*}) effective threads.
// The pass:
//
//  1. precalculates the block-wise and row-wise workload of the
//     intermediate matrix Ĉ (Classify);
//  2. splits dominator pairs into power-of-two column chunks tracked by a
//     mapper array (PlanSplit — B-Splitting);
//  3. gathers low-performer pairs into combined 32-thread blocks of
//     micro-block partitions (PlanGather — B-Gathering);
//  4. marks long output rows whose merge blocks get extra shared memory so
//     fewer of them co-reside per SM (PlanLimitFrom — B-Limiting).
//
// BuildPlan runs all four and yields a Plan that can be executed
// functionally (Plan.Execute, used to prove the transformation preserves
// the product) and visited block-by-block by the timing layer.
package core
