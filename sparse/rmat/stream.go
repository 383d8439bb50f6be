package rmat

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/blockreorg/blockreorg/sparse"
)

// Streaming R-MAT: generate a matrix too large to materialize, writing it
// directly to the segmented on-disk container in sorted row-panel order
// with O(panel) working memory.
//
// The trick is that the R-MAT quadrant recursion factors cleanly along
// the row axis. An edge's row bits are chosen top-with-probability a+b at
// every level, independently of its column bits; conditioned on the row
// bit, the column bit is right-with-probability b/(a+b) (top half) or
// d/(c+d) (bottom half). So instead of placing nnz edges one by one into
// a matrix-sized buffer, Stream walks the row bisection tree splitting
// the edge budget with Binomial(m, a+b) draws until a subtree spans one
// panel of rows, then synthesizes exactly that panel's edges — drawing
// the conditional column bits for the levels the tree already fixed and
// the joint quadrant bits below — and appends the panel to the container.
// The edge-count distribution is exactly the classic generator's; only
// the sequence of random draws differs.
//
// Every random decision is made by a PCG stream keyed to (seed, tree
// node), so output is deterministic for a given (n, nnz, params, seed,
// panel) and two runs over disjoint panel ranges agree on the split
// counts without communicating.

// streamKey salts the per-node PCG streams ("RMTS").
const streamKey = 0x524d5453

// Stream writes an n×n R-MAT matrix with nnz placed edges to path in the
// segmented container format, panel rows per panel.
// Duplicate edges merge by addition within their panel — panels partition
// the rows, so the result is exactly what the in-memory generator's
// duplicate merge produces — which may leave the stored nnz slightly
// below the request. n and panel must be powers of two (the row
// bisection tree cannot split an odd range evenly); panel <= 0 selects a
// single panel.
func Stream(path string, n, nnz int64, p Params, seed uint64, panel int64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("rmat: stream dimension %d must be a positive power of two", n)
	}
	if nnz < 0 {
		return fmt.Errorf("rmat: invalid nnz %d", nnz)
	}
	if panel <= 0 || panel > n {
		panel = n
	}
	if panel&(panel-1) != 0 {
		return fmt.Errorf("rmat: stream panel %d must be a power of two", panel)
	}
	w, err := sparse.CreateSegmented(path, n, n)
	if err != nil {
		return err
	}
	s := &streamer{w: w, n: n, panel: panel, p: p, seed: seed}
	if err := s.walk(0, n, nnz, 1); err != nil {
		w.Discard()
		return err
	}
	return w.Close()
}

type streamer struct {
	w     *sparse.SegWriter
	n     int64
	panel int64
	p     Params
	seed  uint64
}

// nodeRNG returns the deterministic stream for one row-bisection node,
// identified by its heap number (root 1, children 2k and 2k+1).
func (s *streamer) nodeRNG(node uint64) *rand.Rand {
	return rand.New(rand.NewPCG(s.seed, streamKey^node))
}

// walk recursively splits the edge budget m over the row range
// [start, start+size), emitting a panel when the range narrows to one.
func (s *streamer) walk(start, size, m int64, node uint64) error {
	if size <= s.panel {
		return s.emit(start, size, m, node)
	}
	kTop := binomial(s.nodeRNG(node), m, s.p.A+s.p.B)
	if err := s.walk(start, size/2, kTop, 2*node); err != nil {
		return err
	}
	return s.walk(start+size/2, size/2, m-kTop, 2*node+1)
}

// emit synthesizes the m edges of the panel covering rows
// [start, start+size) and appends it to the container.
func (s *streamer) emit(start, size, m int64, node uint64) error {
	rng := s.nodeRNG(node)
	levels := 0
	for int64(1)<<levels < s.n {
		levels++
	}
	depth := 0
	for int64(1)<<depth < s.n/size {
		depth++
	}
	// The row bits above panel depth are the node's path from the root:
	// heap numbering means they are exactly the low bits of the node id.
	path := node - 1<<depth
	ab := s.p.A + s.p.B
	abc := ab + s.p.C
	pRightTop := s.p.B / ab
	pRightBottom := s.p.D / (s.p.C + s.p.D)
	coo := sparse.NewCOO(int(size), int(s.n), int(m))
	for e := int64(0); e < m; e++ {
		var i, j int64
		for l := 0; l < depth; l++ {
			pRight := pRightTop
			if path>>(depth-1-l)&1 == 1 {
				pRight = pRightBottom
			}
			if rng.Float64() < pRight {
				j += s.n >> (l + 1)
			}
		}
		for l := depth; l < levels; l++ {
			half := s.n >> (l + 1)
			switch r := rng.Float64(); {
			case r < s.p.A: // top-left
			case r < ab: // top-right
				j += half
			case r < abc: // bottom-left
				i += half
			default: // bottom-right
				i += half
				j += half
			}
		}
		coo.Add(int(i), int(j), 1-rng.Float64())
	}
	return s.w.AppendPanel(start, start+size, coo.ToCSR())
}

// binomial draws Binomial(m, p) from rng: an exact Bernoulli sum for
// small m, the normal approximation (clamped) for large m, where the
// relative error is far below the R-MAT model's own noise. The split
// stays exact in aggregate — the sibling always receives m−k.
func binomial(rng *rand.Rand, m int64, p float64) int64 {
	switch {
	case m <= 0 || p <= 0:
		return 0
	case p >= 1:
		return m
	case m <= 4096:
		var k int64
		for i := int64(0); i < m; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mu := float64(m) * p
	sd := math.Sqrt(mu * (1 - p))
	k := int64(math.Round(rng.NormFloat64()*sd + mu))
	if k < 0 {
		k = 0
	}
	if k > m {
		k = m
	}
	return k
}
