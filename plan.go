package blockreorg

import (
	"context"
	"fmt"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/sparse"
)

// Plan is a reusable Block Reorganizer preprocessing result: the
// precalculation, classification, B-Splitting, B-Gathering and B-Limiting
// decisions for one (A, B) operand pair, bound to concrete operand
// objects. Every decision depends only on the operands' sparsity structure
// (sparse.CSR.StructureFingerprint), so a plan built once can be rebound
// to any later operands with the same pattern — even with different
// numeric values — and drive their multiplication through Options.Plan,
// skipping the preprocessing phase entirely. This is what a long-running
// service multiplying against the same large sparse network caches between
// requests (see the server package).
//
// A Plan is immutable after construction and safe for concurrent use by
// any number of multiplications.
type Plan struct {
	plan *core.Plan
}

// NewPlan runs the full Block Reorganizer preprocessing for C = A×B under
// opts and returns the reusable plan, bound to (a, b). It builds exactly
// the plan a Multiply with the same opts builds on its own: the GPU (whose
// SM count shapes the dominator threshold), tuning, Accumulator, Workers
// and Trace fields are honored. Algorithm must be BlockReorganizer or
// empty. Faulty requests are reported via the package's typed errors.
func NewPlan(a, b *sparse.CSR, opts Options) (*Plan, error) {
	if opts.Algorithm != "" && opts.Algorithm != BlockReorganizer {
		return nil, fmt.Errorf("%w: plans exist only for the %s algorithm, got %q",
			ErrInvalidOptions, BlockReorganizer, opts.Algorithm)
	}
	opts.Algorithm = BlockReorganizer
	opts.Plan = nil
	_, kopts, err := resolveOptions(a, b, &opts)
	if err != nil {
		return nil, err
	}
	cp, err := kernels.BuildPlan(a, b, kopts)
	if err != nil {
		return nil, err
	}
	return &Plan{plan: cp}, nil
}

// BoundTo reports whether the plan is bound to exactly these operand
// objects — the precondition for passing it in Options.Plan.
func (p *Plan) BoundTo(a, b *sparse.CSR) bool {
	return p != nil && p.plan.BoundTo(a, b)
}

// Rebind returns a plan bound to new operands sharing the sparsity
// structure of the ones this plan was built for, rebuilding only the
// value-carrying pieces in O(nnz(A)). Callers guarantee the structural
// match — normally by comparing StructureFingerprint digests — and Rebind
// re-checks the cheap invariants (dimensions, nnz, row/column
// populations), returning ErrInvalidOptions when they fail. Rebinding to
// the operands the plan is already bound to returns the plan itself.
func (p *Plan) Rebind(a, b *sparse.CSR) (*Plan, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: rebind of nil plan", ErrInvalidOptions)
	}
	cp, err := p.plan.Rebind(a, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if cp == p.plan {
		return p, nil
	}
	return &Plan{plan: cp}, nil
}

// Summary returns the plan's classification counts, matching what a
// Multiply run driven by it reports in Result.Plan.
func (p *Plan) Summary() PlanSummary {
	st := p.plan.Stats()
	return PlanSummary{
		Pairs:          st.Pairs,
		Dominators:     st.Dominators,
		Normals:        st.Normals,
		LowPerformers:  st.LowPerformers,
		SplitBlocks:    st.SplitBlocks,
		CombinedBlocks: st.CombinedBlocks,
		LimitedRows:    st.LimitedRows,
	}
}

// MultiplyContext is Multiply under a context, run on the caller's
// goroutine. A request that fails validation reports its fault whatever
// the context's state; a valid one under a context that is already done
// fails fast before any work. A context that ends mid-run stops the
// multiplication: the host executor deals no further chunk, and the call
// returns ctx.Err() once the chunk or sequential phase in flight (a plan
// build stage, a simulated kernel) finishes. Nothing of the run keeps
// using CPU after the call returns. A context that can never be done
// (ctx.Done() is nil, as for context.Background) runs exactly as Multiply.
func MultiplyContext(ctx context.Context, a, b *sparse.CSR, opts Options) (*Result, error) {
	return run(ctx, a, b, opts, nil, 0, 0)
}
