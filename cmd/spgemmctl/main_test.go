package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// newBackend stands up a real spgemmd server for the client to talk to.
func newBackend(t *testing.T) (*server.Server, *client, *bytes.Buffer) {
	t.Helper()
	s, err := server.New(server.Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var out bytes.Buffer
	return s, &client{base: ts.URL, out: &out}, &out
}

func TestClientRoundTrip(t *testing.T) {
	_, c, out := newBackend(t)

	// Empty listing.
	if err := c.matrices(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no matrices registered") {
		t.Fatalf("empty listing output: %q", out.String())
	}
	out.Reset()

	// Upload a Matrix Market file.
	dir := t.TempDir()
	m, err := rmat.PowerLaw(200, 2500, 2.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "net.mtx")
	if err := sparse.WriteMatrixMarketFile(path, m); err != nil {
		t.Fatal(err)
	}
	if err := c.upload([]string{"-name", "net", "-file", path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "registered net") {
		t.Fatalf("upload output: %q", out.String())
	}
	_, fp, _ := strings.Cut(out.String(), "fp=")
	out.Reset()

	// The same matrix as a multi-panel segmented container registers
	// with the same structure fingerprint.
	seg := filepath.Join(dir, "net.csrs")
	if err := sparse.WriteSegmentedFile(seg, m, 64); err != nil {
		t.Fatal(err)
	}
	if err := c.upload([]string{"-name", "netseg", "-file", seg}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "registered netseg") || fp == "" || !strings.Contains(out.String(), "fp="+fp) {
		t.Fatalf("segmented upload output: %q, want fp=%s", out.String(), fp)
	}
	out.Reset()

	// The listing now shows it.
	if err := c.matrices(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "net") {
		t.Fatalf("listing output: %q", out.String())
	}
	out.Reset()

	// Multiply to completion, writing the product out.
	product := filepath.Join(dir, "c.mtx")
	if err := c.multiply([]string{"-a", "net", "-o", product}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"accepted", "plan cache: miss", "product written"} {
		if !strings.Contains(text, want) {
			t.Errorf("multiply output missing %q:\n%s", want, text)
		}
	}
	out.Reset()

	// The written product matches a direct read-back multiply.
	got, err := sparse.ReadMatrixMarketFile(product)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != m.Rows || got.Cols != m.Cols || got.NNZ() == 0 {
		t.Fatalf("product file is %dx%d nnz %d", got.Rows, got.Cols, got.NNZ())
	}

	// A second multiply hits the plan cache.
	if err := c.multiply([]string{"-a", "net"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "plan cache: HIT") {
		t.Fatalf("repeat multiply output: %q", out.String())
	}
	out.Reset()

	// Metrics pass through raw.
	if err := c.metrics(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spgemmd_plancache_hits_total 1") {
		t.Fatalf("metrics output: %q", out.String())
	}
}

func TestClientPipeline(t *testing.T) {
	_, c, out := newBackend(t)

	dir := t.TempDir()
	g, err := rmat.Generate(96, 384, rmat.Default, 21)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = g.Symmetrize(); err != nil {
		t.Fatal(err)
	}
	g.Fill(1)
	path := filepath.Join(dir, "net.mtx")
	if err := sparse.WriteMatrixMarketFile(path, g); err != nil {
		t.Fatal(err)
	}
	if err := c.upload([]string{"-name", "net", "-file", path}); err != nil {
		t.Fatal(err)
	}
	out.Reset()

	// MCL to completion with the profile.
	if err := c.pipeline([]string{"-a", "net", "-workload", "mcl", "-profile"}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"accepted", "mcl on", "converged=true", "clusters:", "pipeline.expand"} {
		if !strings.Contains(text, want) {
			t.Errorf("pipeline output missing %q:\n%s", want, text)
		}
	}
	out.Reset()

	// Similarity scores written to a file.
	scores := filepath.Join(dir, "scores.mtx")
	if err := c.pipeline([]string{"-a", "net", "-workload", "similarity", "-mask", "new", "-o", scores}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "result written") {
		t.Fatalf("similarity output: %q", out.String())
	}
	got, err := sparse.ReadMatrixMarketFile(scores)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 96 || got.Cols != 96 {
		t.Fatalf("scores file is %dx%d", got.Rows, got.Cols)
	}
}

func TestClientErrors(t *testing.T) {
	_, c, _ := newBackend(t)
	if err := c.multiply([]string{"-a", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown matrix") {
		t.Fatalf("unknown operand error = %v", err)
	}
	if err := c.multiply(nil); err == nil {
		t.Fatal("multiply without -a accepted")
	}
	if err := c.upload([]string{"-name", "x"}); err == nil {
		t.Fatal("upload without -file accepted")
	}
	if err := c.job([]string{"-id", "j-42"}); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("unknown job error = %v", err)
	}
	// The format comes from the file's content, not its extension: a file
	// of neither format fails with an error naming both.
	junk := filepath.Join(t.TempDir(), "matrix.xls")
	if err := os.WriteFile(junk, []byte("PK\x03\x04 not a matrix"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.upload([]string{"-name", "x", "-file", junk}); err == nil || !strings.Contains(err.Error(), "neither a segmented CSR container nor Matrix Market") {
		t.Fatalf("unknown format error = %v", err)
	}
	if err := c.pipeline([]string{"-a", "x"}); err == nil {
		t.Fatal("pipeline without -workload accepted")
	}
	if err := c.pipeline([]string{"-a", "nope", "-workload", "mcl"}); err == nil || !strings.Contains(err.Error(), "unknown matrix") {
		t.Fatalf("pipeline unknown operand error = %v", err)
	}
}
