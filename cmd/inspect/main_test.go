package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

func TestRunOnDataset(t *testing.T) {
	if err := run(io.Discard, "", "as-caida", 32, 0, 0, 30, false); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "", "nosuch", 32, 0, 0, 30, false); err == nil {
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
	if err := run(io.Discard, path, "", 0, 20, 5, 80, true); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(t.TempDir(), "m.csrs")
	if err := sparse.WriteSegmentedFile(seg, m, 128); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, seg, "", 0, 20, 5, 80, false); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, filepath.Join(t.TempDir(), "missing.mtx"), "", 0, 0, 0, 30, false); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run(io.Discard, "", "", 0, 0, 0, 30, false); err == nil {
		t.Fatal("no input accepted")
	}
}

// TestProfileKeepsClassification pins that -profile only adds tables: the
// distribution and classification it prints are those of a plain run.
func TestProfileKeepsClassification(t *testing.T) {
	var plain, profiled bytes.Buffer
	if err := run(&plain, "", "as-caida", 32, 0, 0, 30, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&profiled, "", "as-caida", 32, 0, 0, 30, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "dominators") {
		t.Fatalf("plain run printed no classification:\n%s", plain.String())
	}
	if !strings.HasPrefix(profiled.String(), plain.String()) {
		t.Fatalf("-profile changed the classification:\nplain:\n%s\nprofiled:\n%s", plain.String(), profiled.String())
	}
}
