package datasets

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// Family distinguishes the two real-world collections of Table II.
type Family int

// Dataset families.
const (
	// Florida entries are FEM-style matrices with regular row
	// populations (Florida Suite Sparse collection).
	Florida Family = iota
	// Stanford entries are social/web networks with power-law degree
	// distributions (SNAP collection).
	Stanford
)

// String names the family as the paper's figures group it.
func (f Family) String() string {
	if f == Florida {
		return "Florida matrix suite"
	}
	return "Stanford large network data"
}

// Spec is one Table II entry: the published shape plus the generator
// parameters of its synthetic stand-in.
type Spec struct {
	Name   string
	Family Family
	// Rows and NNZ are the published dimension and nnz(A).
	Rows int
	NNZ  int
	// NNZC is the published nnz(C) for C = A² (reporting only; the
	// stand-in approximates, not matches, it).
	NNZC int64
	// Alpha is the power-law exponent of the Stanford stand-in; unused
	// for Florida entries.
	Alpha float64
	// HubCap is the structural cutoff factor of the stand-in (the hub
	// node expects at most HubCap·√nnz entries); 0 selects the default 8.
	HubCap float64
	// Seed makes generation deterministic per entry.
	Seed uint64
}

// RealWorld returns the 28 entries of Table II in the paper's order:
// Florida matrix suite first, then the Stanford network data.
func RealWorld() []Spec {
	return []Spec{
		// Florida matrix suite (regular distributions).
		{Name: "filter3D", Family: Florida, Rows: 106_000, NNZ: 2_700_000, NNZC: 20_100_000, Seed: 101},
		{Name: "ship", Family: Florida, Rows: 140_000, NNZ: 3_700_000, NNZC: 23_000_000, Seed: 102},
		{Name: "harbor", Family: Florida, Rows: 46_000, NNZ: 2_300_000, NNZC: 7_500_000, Seed: 103},
		{Name: "protein", Family: Florida, Rows: 36_000, NNZ: 2_100_000, NNZC: 18_700_000, Seed: 104},
		{Name: "sphere", Family: Florida, Rows: 81_000, NNZ: 2_900_000, NNZC: 25_300_000, Seed: 105},
		{Name: "2cube_sphere", Family: Florida, Rows: 99_000, NNZ: 854_000, NNZC: 8_600_000, Seed: 106},
		{Name: "accelerator", Family: Florida, Rows: 118_000, NNZ: 1_300_000, NNZC: 17_800_000, Seed: 107},
		{Name: "cage12", Family: Florida, Rows: 127_000, NNZ: 1_900_000, NNZC: 14_500_000, Seed: 108},
		{Name: "hood", Family: Florida, Rows: 215_000, NNZ: 5_200_000, NNZC: 32_700_000, Seed: 109},
		{Name: "m133-b3", Family: Florida, Rows: 196_000, NNZ: 782_000, NNZC: 3_000_000, Seed: 110},
		{Name: "majorbasis", Family: Florida, Rows: 156_000, NNZ: 1_700_000, NNZC: 7_900_000, Seed: 111},
		{Name: "mario002", Family: Florida, Rows: 381_000, NNZ: 1_100_000, NNZC: 6_200_000, Seed: 112},
		{Name: "mono_500Hz", Family: Florida, Rows: 165_000, NNZ: 4_800_000, NNZC: 39_500_000, Seed: 113},
		{Name: "offshore", Family: Florida, Rows: 254_000, NNZ: 2_100_000, NNZC: 22_200_000, Seed: 114},
		{Name: "patents_main", Family: Florida, Rows: 235_000, NNZ: 548_000, NNZC: 2_200_000, Seed: 115},
		{Name: "poisson3Da", Family: Florida, Rows: 13_000, NNZ: 344_000, NNZC: 2_800_000, Seed: 116},
		{Name: "QCD", Family: Florida, Rows: 48_000, NNZ: 1_800_000, NNZC: 10_400_000, Seed: 117},
		{Name: "scircuit", Family: Florida, Rows: 167_000, NNZ: 900_000, NNZC: 5_000_000, Seed: 118},
		{Name: "power197k", Family: Florida, Rows: 193_000, NNZ: 3_300_000, NNZC: 38_000_000, Seed: 119},
		// Stanford large network data (skewed distributions). Alpha falls
		// with the published product amplification nnz(C)/nnz(A).
		{Name: "youtube", Family: Stanford, Rows: 1_100_000, NNZ: 2_800_000, NNZC: 148_000_000, Alpha: 2.35, Seed: 201},
		{Name: "loc-gowalla", Family: Stanford, Rows: 192_000, NNZ: 1_800_000, NNZC: 456_000_000, Alpha: 1.85, Seed: 202},
		{Name: "as-caida", Family: Stanford, Rows: 26_000, NNZ: 104_000, NNZC: 25_600_000, Alpha: 1.85, HubCap: 32, Seed: 203},
		{Name: "sx-mathoverflow", Family: Stanford, Rows: 87_000, NNZ: 495_000, NNZC: 17_700_000, Alpha: 2.4, Seed: 204},
		{Name: "slashDot", Family: Stanford, Rows: 76_000, NNZ: 884_000, NNZC: 75_200_000, Alpha: 2.1, Seed: 205},
		{Name: "emailEnron", Family: Stanford, Rows: 36_000, NNZ: 359_000, NNZC: 29_100_000, Alpha: 2.05, Seed: 206},
		{Name: "epinions", Family: Stanford, Rows: 74_000, NNZ: 497_000, NNZC: 19_600_000, Alpha: 2.35, Seed: 207},
		{Name: "web-Notredame", Family: Stanford, Rows: 318_000, NNZ: 1_400_000, NNZC: 16_000_000, Alpha: 2.8, HubCap: 3, Seed: 208},
		{Name: "stanford", Family: Stanford, Rows: 275_000, NNZ: 2_200_000, NNZC: 19_800_000, Alpha: 2.9, HubCap: 3, Seed: 209},
	}
}

// ByName returns the Table II entry with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range RealWorld() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Skewed returns the Stanford-family entries — the paper's irregular
// matrices, used by Figures 11, 12 and 14.
func Skewed() []Spec {
	var out []Spec
	for _, s := range RealWorld() {
		if s.Family == Stanford {
			out = append(out, s)
		}
	}
	return out
}

// Generate materializes the stand-in at 1/scale of the published size
// (scale 1 is full size). Row count and nnz shrink together, preserving the
// mean degree and the distribution shape.
func (s Spec) Generate(scale int) (*sparse.CSR, error) {
	if scale < 1 {
		return nil, fmt.Errorf("datasets: scale %d must be >= 1", scale)
	}
	rows := s.Rows / scale
	nnz := s.NNZ / scale
	if rows < 64 {
		rows = 64
	}
	if nnz < rows {
		nnz = rows
	}
	if s.Family == Stanford {
		cap := s.HubCap
		if cap == 0 {
			cap = 8
		}
		return rmat.PowerLawCapped(rows, nnz, s.Alpha, cap, s.Seed)
	}
	rowNNZ := nnz / rows
	if rowNNZ < 2 {
		rowNNZ = 2
	}
	halfBand := rowNNZ * 3
	return rmat.Mesh(rows, rowNNZ, halfBand, s.Seed)
}

// GenerateCached materializes the stand-in through a disk cache of
// segmented containers in dir: the first call generates and stores the
// matrix, later calls load it (an order of magnitude faster for the large
// Stanford entries). An unreadable or corrupt cache entry is regenerated
// and rewritten.
func (s Spec) GenerateCached(scale int, dir string) (*sparse.CSR, error) {
	if dir == "" {
		return s.Generate(scale)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_s%d.csrs", s.Name, scale))
	if m, err := sparse.ReadFile(path); err == nil {
		return m, nil
	}
	m, err := s.Generate(scale)
	if err != nil {
		return nil, err
	}
	if err := sparse.WriteSegmentedFile(path, m, 0); err != nil {
		return nil, err
	}
	return m, nil
}
