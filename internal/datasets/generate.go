package datasets

import (
	"fmt"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// GenSpec is a fully resolved synthesis request: one matrix, one seed, one
// generator family. It is the in-process form of cmd/genmat's flag surface,
// shared with the workload harness so a request stream can synthesize its
// operands without shelling out, and small enough to ride along in trace
// records so a reader of the trace can rebuild the exact operand.
type GenSpec struct {
	// Kind selects the generator: "rmat", "powerlaw", "mesh", "uniform",
	// or "dataset" (a Table II stand-in named by Dataset).
	Kind string `json:"kind"`
	// N is the dimension; NNZ the target nonzero count.
	N   int `json:"n,omitempty"`
	NNZ int `json:"nnz,omitempty"`
	// Alpha is the power-law exponent (powerlaw only).
	Alpha float64 `json:"alpha,omitempty"`
	// RowNNZ and HalfBand shape the mesh family; HalfBand 0 selects the
	// default 3×RowNNZ.
	RowNNZ   int `json:"rownnz,omitempty"`
	HalfBand int `json:"halfband,omitempty"`
	// PA..PD are the R-MAT recursion probabilities; all zero selects
	// rmat.Default.
	PA float64 `json:"pa,omitempty"`
	PB float64 `json:"pb,omitempty"`
	PC float64 `json:"pc,omitempty"`
	PD float64 `json:"pd,omitempty"`
	// Dataset and Scale select a Table II stand-in (Kind "dataset").
	Dataset string `json:"dataset,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	// Seed makes the synthesis deterministic.
	Seed uint64 `json:"seed"`
}

// params resolves the R-MAT probabilities, defaulting to rmat.Default when
// all four are zero.
func (g GenSpec) params() rmat.Params {
	if g.PA == 0 && g.PB == 0 && g.PC == 0 && g.PD == 0 {
		return rmat.Default
	}
	return rmat.Params{A: g.PA, B: g.PB, C: g.PC, D: g.PD}
}

// Validate reports whether the spec can synthesize.
func (g GenSpec) Validate() error {
	switch g.Kind {
	case "rmat":
		if err := g.params().Validate(); err != nil {
			return err
		}
	case "powerlaw":
		if g.Alpha != 0 && g.Alpha <= 1 {
			return fmt.Errorf("datasets: power-law exponent %g must exceed 1", g.Alpha)
		}
	case "mesh", "uniform":
	case "dataset":
		if g.Dataset == "" {
			return fmt.Errorf("datasets: kind \"dataset\" needs a dataset name")
		}
		if _, err := ByName(g.Dataset); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("datasets: empty generator kind")
	default:
		return fmt.Errorf("datasets: unknown generator kind %q", g.Kind)
	}
	if g.Kind != "dataset" && (g.N <= 0 || g.NNZ < 0) {
		return fmt.Errorf("datasets: invalid size n=%d nnz=%d", g.N, g.NNZ)
	}
	return nil
}

// Synthesize materializes the spec. The same spec always yields the same
// matrix (the generators are PCG-seeded), which is what lets the workload
// harness name matrices by their spec and a later run re-register
// identical operands.
func Synthesize(g GenSpec) (*sparse.CSR, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	switch g.Kind {
	case "rmat":
		return rmat.Generate(g.N, g.NNZ, g.params(), g.Seed)
	case "powerlaw":
		alpha := g.Alpha
		if alpha == 0 {
			alpha = 2.1
		}
		return rmat.PowerLaw(g.N, g.NNZ, alpha, g.Seed)
	case "mesh":
		rowNNZ := g.RowNNZ
		if rowNNZ == 0 {
			rowNNZ = 26
		}
		halfBand := g.HalfBand
		if halfBand == 0 {
			halfBand = 3 * rowNNZ
		}
		return rmat.Mesh(g.N, rowNNZ, halfBand, g.Seed)
	case "uniform":
		return rmat.UniformRandom(g.N, g.N, g.NNZ, g.Seed)
	default: // "dataset": Validate vetted the name.
		spec, err := ByName(g.Dataset)
		if err != nil {
			return nil, err
		}
		scale := g.Scale
		if scale == 0 {
			scale = 8
		}
		return spec.Generate(scale)
	}
}
