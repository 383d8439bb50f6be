package core

import (
	"fmt"

	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

// ExecuteOn computes the plan's product on the host numeric engine
// (sparse.MultiplyConfigured) on an explicit executor (nil selects the
// process-wide default), merging each row under sparse.AccumAuto and
// writing it into the slot its stashed population sizes; the chunks are
// weighted by the plan's stashed row work. The engine's canonical
// summation order makes the result bit-identical to Execute's block walk,
// under every accumulator. The maxIntermediate guard (0 = no limit) rejects products
// with more than that many intermediate products, as Execute does.
func (p *Plan) ExecuteOn(ex *parallel.Executor, maxIntermediate int64) (*sparse.CSR, error) {
	if maxIntermediate > 0 && p.Cls.TotalWork > maxIntermediate {
		return nil, fmt.Errorf("core: intermediate matrix has %d products, over limit %d", p.Cls.TotalWork, maxIntermediate)
	}
	return sparse.MultiplyConfigured(p.A, p.B, ex, nil,
		sparse.MulConfig{RowNNZ: p.RowNNZ, RowWork: p.Limit.RowWork})
}
