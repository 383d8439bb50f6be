package main

import (
	"path/filepath"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func TestLoadOperandsDataset(t *testing.T) {
	a, b, err := loadOperands("", "", "as-caida", 32)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset mode should square the matrix")
	}
	if a.Rows == 0 {
		t.Fatal("empty dataset matrix")
	}
	if _, _, err := loadOperands("", "", "nosuch", 32); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadOperandsFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := rmat.UniformRandom(20, 30, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	pa := filepath.Join(dir, "a.mtx")
	if err := sparse.WriteMatrixMarketFile(pa, m); err != nil {
		t.Fatal(err)
	}
	a, b, err := loadOperands(pa, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || !a.Equal(m, 0) {
		t.Fatal("single-file load wrong")
	}
	// B arrives as a segmented container: each operand's format is
	// detected on its own.
	n := m.Transpose()
	pb := filepath.Join(dir, "b.csrs")
	if err := sparse.WriteSegmentedFile(pb, n, 8); err != nil {
		t.Fatal(err)
	}
	a, b, err = loadOperands(pa, pb, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(m, 0) || !b.Equal(n, 0) {
		t.Fatal("two-file load wrong")
	}
	if _, _, err := loadOperands("", "", "", 0); err == nil {
		t.Fatal("no-input mode accepted")
	}
	if _, _, err := loadOperands(filepath.Join(dir, "missing.mtx"), "", "", 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "c.mtx")
	if err := run("", "", "poisson3Da", 32, "Block-Reorganizer", "TITAN Xp", false, out, true, "auto"); err != nil {
		t.Fatal(err)
	}
	c, err := sparse.ReadMatrixMarketFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() == 0 {
		t.Fatal("empty product written")
	}
	if err := run("", "", "poisson3Da", 32, "", "TITAN Xp", true, "", false, "auto"); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", "poisson3Da", 32, "warp-drive", "TITAN Xp", false, "", false, "auto"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run("", "", "poisson3Da", 32, "", "TITAN Xp", false, "", false, "radix"); err == nil {
		t.Fatal("unknown accumulator accepted")
	}
}

func TestRunTimelineEndToEnd(t *testing.T) {
	if err := runTimeline("", "", "as-caida", 32, "outer-product", "TITAN Xp"); err != nil {
		t.Fatal(err)
	}
	if err := runTimeline("", "", "as-caida", 32, "outer-product", "Voodoo"); err == nil {
		t.Fatal("unknown GPU accepted")
	}
}
