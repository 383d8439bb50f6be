package datasets

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
)

func TestRealWorldCatalogComplete(t *testing.T) {
	specs := RealWorld()
	if len(specs) != 28 {
		t.Fatalf("Table II has 28 datasets, catalog has %d", len(specs))
	}
	florida, stanford := 0, 0
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate dataset %q", s.Name)
		}
		seen[s.Name] = true
		if s.Rows <= 0 || s.NNZ <= 0 || s.NNZC <= 0 {
			t.Fatalf("%s: incomplete shape", s.Name)
		}
		switch s.Family {
		case Florida:
			florida++
		case Stanford:
			stanford++
			if s.Alpha <= 1 {
				t.Fatalf("%s: Stanford entry missing alpha", s.Name)
			}
		}
	}
	if florida != 19 || stanford != 9 {
		t.Fatalf("family split %d/%d, want 19/9", florida, stanford)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("youtube")
	if err != nil || s.Rows != 1_100_000 {
		t.Fatalf("ByName(youtube) = %+v, %v", s, err)
	}
	if _, err := ByName("netflix"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSkewedSubset(t *testing.T) {
	skewed := Skewed()
	if len(skewed) != 9 {
		t.Fatalf("Skewed() returned %d entries, want 9", len(skewed))
	}
	for _, s := range skewed {
		if s.Family != Stanford {
			t.Fatalf("%s is not a Stanford entry", s.Name)
		}
	}
}

func TestGenerateMatchesShape(t *testing.T) {
	for _, name := range []string{"harbor", "as-caida", "stanford", "poisson3Da"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const scale = 16
		m, err := spec.Generate(scale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRows := spec.Rows / scale
		if m.Rows != wantRows {
			t.Fatalf("%s: %d rows, want %d", name, m.Rows, wantRows)
		}
		// nnz within a loose band: generators merge duplicates and jitter.
		wantNNZ := spec.NNZ / scale
		if m.NNZ() < wantNNZ/2 || m.NNZ() > wantNNZ*2 {
			t.Fatalf("%s: nnz %d outside [%d, %d]", name, m.NNZ(), wantNNZ/2, wantNNZ*2)
		}
	}
}

// The whole point of the two families: Stanford stand-ins must be skewed,
// Florida stand-ins must not be.
func TestFamiliesHaveExpectedSkew(t *testing.T) {
	for _, name := range []string{"filter3D", "QCD"} {
		spec, _ := ByName(name)
		m, err := spec.Generate(16)
		if err != nil {
			t.Fatal(err)
		}
		if st := sparse.ComputeStats(m); st.IsSkewed() {
			t.Fatalf("%s (Florida) generated skewed: gini=%.2f", name, st.Gini)
		}
	}
	for _, name := range []string{"as-caida", "slashDot", "youtube"} {
		spec, _ := ByName(name)
		m, err := spec.Generate(16)
		if err != nil {
			t.Fatal(err)
		}
		if st := sparse.ComputeStats(m); !st.IsSkewed() {
			t.Fatalf("%s (Stanford) generated regular: gini=%.2f", name, st.Gini)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := ByName("epinions")
	a, err := spec.Generate(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(16)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b, 0) {
		t.Fatal("same spec generated different matrices")
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	spec, _ := ByName("harbor")
	if _, err := spec.Generate(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
	syn, _ := SyntheticByName("s1")
	if _, err := syn.Generate(-1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestSyntheticCatalog(t *testing.T) {
	specs := Synthetic()
	if len(specs) != 12 {
		t.Fatalf("Table III has 12 C=A² datasets, catalog has %d", len(specs))
	}
	series := map[string]int{}
	for _, s := range specs {
		series[s.Series]++
		if err := s.Params.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	if series["S"] != 4 || series["P"] != 4 || series["SP"] != 4 {
		t.Fatalf("series split %+v", series)
	}
	if _, err := SyntheticByName("sp3"); err != nil {
		t.Fatal(err)
	}
	if _, err := SyntheticByName("zz"); err == nil {
		t.Fatal("unknown synthetic accepted")
	}
}

// The P series must have monotonically increasing skew: that is its reason
// to exist.
func TestPSeriesSkewMonotone(t *testing.T) {
	prev := -1.0
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		spec, err := SyntheticByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Generate(32)
		if err != nil {
			t.Fatal(err)
		}
		gini := sparse.ComputeStats(m).Gini
		if gini <= prev {
			t.Fatalf("%s gini %.3f not above previous %.3f", name, gini, prev)
		}
		prev = gini
	}
}

// The SP series must have monotonically decreasing density.
func TestSPSeriesSparsityMonotone(t *testing.T) {
	prev := 1 << 62
	for _, name := range []string{"sp1", "sp2", "sp3", "sp4"} {
		spec, _ := SyntheticByName(name)
		m, err := spec.Generate(32)
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() >= prev {
			t.Fatalf("%s nnz %d not below previous %d", name, m.NNZ(), prev)
		}
		prev = m.NNZ()
	}
}

func TestABPairs(t *testing.T) {
	pairs := ABPairs()
	if len(pairs) != 4 {
		t.Fatalf("Table III has 4 AB pairs, got %d", len(pairs))
	}
	if pairs[0].Scale != 15 || pairs[3].Scale != 18 {
		t.Fatalf("scale range wrong: %d..%d", pairs[0].Scale, pairs[3].Scale)
	}
	a, b, err := pairs[0].Generate(6) // scale 9: 512 nodes
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 512 || b.Rows != 512 {
		t.Fatalf("downscaled dims %d/%d, want 512", a.Rows, b.Rows)
	}
	if a.Equal(b, 0) {
		t.Fatal("A and B identical; pair seeds not independent")
	}
	if pairs[2].Name() != "17" {
		t.Fatalf("pair name %q", pairs[2].Name())
	}
}

func TestGenerateCached(t *testing.T) {
	dir := t.TempDir()
	spec, _ := ByName("as-caida")
	first, err := spec.GenerateCached(32, dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := spec.GenerateCached(32, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second, 0) {
		t.Fatal("cached load differs from generation")
	}
	direct, err := spec.Generate(32)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(direct, 0) {
		t.Fatal("cache contents differ from direct generation")
	}
	// Empty dir bypasses the cache entirely.
	bypass, err := spec.GenerateCached(32, "")
	if err != nil || !bypass.Equal(direct, 0) {
		t.Fatal("cache bypass wrong")
	}
	// A corrupt cache entry is regenerated, not trusted.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "as-caida_s32.csrs" {
		t.Fatalf("cache dir contents: %v, %v", entries, err)
	}
	path := filepath.Join(dir, entries[0].Name())
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := spec.GenerateCached(32, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(direct, 0) {
		t.Fatal("corrupt cache not regenerated")
	}
}
