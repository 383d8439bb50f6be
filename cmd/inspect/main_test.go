package main

import (
	"path/filepath"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func TestRunOnDataset(t *testing.T) {
	if err := run("", "as-caida", 32, 0, 0, 30, false); err != nil {
		t.Fatal(err)
	}
	if err := run("", "nosuch", 32, 0, 0, 30, false); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunOnFile(t *testing.T) {
	m, err := rmat.PowerLaw(500, 5000, 2.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := sparse.WriteMatrixMarketFile(path, m); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "", 0, 20, 5, 80, true); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(t.TempDir(), "m.csrs")
	if err := sparse.WriteSegmentedFile(seg, m, 128); err != nil {
		t.Fatal(err)
	}
	if err := run(seg, "", 0, 20, 5, 80, false); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(t.TempDir(), "missing.mtx"), "", 0, 0, 0, 30, false); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run("", "", 0, 0, 0, 30, false); err == nil {
		t.Fatal("no input accepted")
	}
}
