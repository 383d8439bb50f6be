package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
)

func writeFile(t *testing.T, path, contents string) error {
	t.Helper()
	return os.WriteFile(path, []byte(contents), 0o644)
}

func TestRegistryRegister(t *testing.T) {
	r := NewRegistry()
	a := testNetwork(t, 30, 120, 17)

	m, err := r.Register("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint != a.StructureFingerprint() {
		t.Fatal("registry fingerprint disagrees with the matrix's")
	}
	if got, ok := r.Get("a"); !ok || got.M != a {
		t.Fatal("Get did not return the registered matrix")
	}
	if _, err := r.Register("a", a); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := r.Register("", a); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.Register("nil", nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryLoadDir(t *testing.T) {
	dir := t.TempDir()
	a := testNetwork(t, 30, 120, 18)
	b := testNetwork(t, 25, 100, 19)
	if err := sparse.WriteMatrixMarketFile(filepath.Join(dir, "alpha.mtx"), a); err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteSegmentedFile(filepath.Join(dir, "beta.csrs"), b, 8); err != nil {
		t.Fatal(err)
	}
	// Files with foreign extensions, the retired flat binary format's
	// included, are skipped, not errors.
	if err := writeFile(t, filepath.Join(dir, "notes.txt"), "not a matrix"); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(t, filepath.Join(dir, "gamma.csrb"), "CSRB\x01\x00\x00\x00"); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	n, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d matrices, want 2", n)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names = %v", got)
	}
	ma, _ := r.Get("alpha")
	if ma.M.Rows != a.Rows || ma.M.NNZ() != a.NNZ() {
		t.Fatal("alpha round-trip mangled the matrix")
	}
	mb, _ := r.Get("beta")
	if !mb.M.Equal(b, 0) {
		t.Fatal("beta segmented round-trip diverged")
	}
}

func TestRegistryLoadDirBadFile(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(t, filepath.Join(dir, "broken.mtx"), "%%MatrixMarket garbage"); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if _, err := r.LoadDir(dir); err == nil || !strings.Contains(err.Error(), "broken.mtx") {
		t.Fatalf("LoadDir error %v does not name the offending file", err)
	}
	if _, err := r.LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("LoadDir accepted a missing directory")
	}
}
