// Package analysis implements blockreorg-vet: a project-specific static
// analyzer built only on the standard library's go/ast, go/parser and
// go/types. It encodes the structural rules the type system cannot see —
// the invariants every PR must preserve for the Block Reorganizer's plans
// and sparse formats to stay trustworthy:
//
//   - rawindex: outside the sparse package, the Ptr/Idx/Val storage of a
//     CSR/CSC must not be indexed or sliced directly; the Row/Col accessors
//     and AppendRow/AppendCol builders are the sanctioned surface, so the
//     format contract is enforced in one place.
//   - nnztrunc: nnz arithmetic (workloads, flop counts, intermediate
//     populations — values that scale with nnz(A)·nnz(B)) must stay int or
//     int64; converting it to a narrower integer type silently truncates on
//     large networks.
//   - kernelvalidate: every exported entry point of the kernels package
//     that accepts sparse operands must run the validation gate
//     (checkShapes/checkInputs or an explicit Validate/CheckDeep) before
//     touching them.
//   - seededrand: deterministic simulator and benchmark code must not use
//     math/rand (v1) or the auto-seeded top-level generators of
//     math/rand/v2; randomness flows through explicitly seeded sources.
//   - scratchmake: kernel-package loops (sparse, kernels, core) must not
//     allocate nnz-scaled scratch with make([]...); such buffers come from
//     the internal/parallel arenas, which recycle them across calls and
//     poison them under Paranoid mode.
//   - pkgdoc: every package carries a doc comment; library packages open
//     with "Package <name>" per the godoc convention.
//
// On top of the single-pass AST rules sits a multi-pass framework: each
// Pass lazily computes shared per-function facts (Pass.Facts) — a
// statement-level control-flow graph per function body (including every
// function literal, linked to its encloser), the mutex Lock/Unlock sites
// with rendered receivers, and a call-site table with rendered callees.
// Five path-sensitive rules reason over those facts:
//
//   - lockheld: a mutex held across a channel send or receive, a Wait, a
//     select with no default clause, or a blocking I/O call — the walk
//     covers the CFG region from each Lock to its matching same-receiver
//     Unlock (the rest of the function when the unlock is deferred).
//   - ctxflow: a function that receives a context.Context and then severs
//     it — calling context.Background()/TODO() instead of threading the
//     parameter (the nil-guard rebind is exempt), or never mentioning a
//     named ctx parameter at all.
//   - goroleak: a `go func(){...}()` whose body can reach its end without
//     signaling anyone (no Done, send, or close on some path), so nothing
//     can ever join it; named launches are reported when the launching
//     function shows no Add/Wait machinery.
//   - spanpair: a trace span opened (Span/SpanItems) whose closer is
//     discarded or not invoked on every path to return — the profile's
//     sums-to-wall invariant depends on balanced spans.
//   - poolreturn: an arena buffer (parallel.GetFloats/GetInts/
//     GetIntsZeroed/GetInt64s/GetUint64sZeroed) not released through the matching Put on
//     every path out of the function; returning the buffer itself hands
//     ownership to the caller and is accepted.
//   - filehandle: a file opened with os.Open/Create/OpenFile/CreateTemp
//     whose Close is unreachable on some path to return; returning the
//     handle or storing it into a container transfers ownership, and the
//     open's own error path is exempt.
//
// A finding can be silenced at one site with a reasoned directive on the
// same line or the line above:
//
//	//vet:ignore rule[,rule] -- reason
//
// The reason is mandatory — a directive without one is itself reported
// (pseudo-rule "vetignore") — and suppressed findings stay counted in the
// driver's summary line, so suppressions remain visible.
//
// The analyzers run over type-checked packages when types resolve and fall
// back to syntactic matching where they do not (the loader stubs imports
// outside the module, so stdlib-heavy expressions may lack type info).
// Test files are not analyzed: tests deliberately build corrupt structures
// to exercise the validators. Vendor trees and files excluded by build
// constraints are skipped the way the go tool skips them.
package analysis
