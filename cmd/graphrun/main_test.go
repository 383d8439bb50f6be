package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// writeGraph generates a small symmetrized R-MAT graph and writes it as a
// Matrix Market file, returning the path.
func writeGraph(t *testing.T, n, nnz int, seed uint64) string {
	t.Helper()
	g, err := rmat.Generate(n, nnz, rmat.Default, seed)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = g.Symmetrize(); err != nil {
		t.Fatal(err)
	}
	g.Fill(1)
	path := filepath.Join(t.TempDir(), "graph.mtx")
	if err := sparse.WriteMatrixMarketFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeFull writes a structurally full n x n matrix, whose pattern is
// stable under powering — every iteration past the first must rebind the
// cached plan.
func writeFull(t *testing.T, n int) string {
	t.Helper()
	coo := sparse.NewCOO(n, n, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coo.Add(i, j, float64(i+j+1))
		}
	}
	path := filepath.Join(t.TempDir(), "full.mtx")
	if err := sparse.WriteMatrixMarketFile(path, coo.ToCSR()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGraphrunMCL(t *testing.T) {
	path := writeGraph(t, 64, 256, 3)
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-workload", "mcl", "-in", path})
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "converged=true") {
		t.Errorf("MCL did not report convergence:\n%s", out)
	}
	if !strings.Contains(out, "clusters=") {
		t.Errorf("MCL output has no cluster summary:\n%s", out)
	}
}

func TestGraphrunPowerProfileShowsPlanHits(t *testing.T) {
	path := writeFull(t, 12)
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{
		"-workload", "power", "-in", path, "-k", "5", "-profile",
	})
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	// A^5 is 4 multiplies; the structure-stable chain misses once and hits
	// the plan cache on every later iteration, and -profile surfaces the
	// same counters from the trace record.
	if !strings.Contains(out, "plan hits=3 misses=1") {
		t.Errorf("summary line does not report 3 hits / 1 miss:\n%s", out)
	}
	for _, want := range []string{"phase breakdown", "pipeline.expand"} {
		if !strings.Contains(out, want) {
			t.Errorf("-profile output is missing %q:\n%s", want, out)
		}
	}
	counters := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "pipeline_") {
			counters[f[0]] = f[1]
		}
	}
	for name, want := range map[string]string{
		"pipeline_iterations":  "4",
		"pipeline_plan_hits":   "3",
		"pipeline_plan_misses": "1",
	} {
		if counters[name] != want {
			t.Errorf("-profile counter %s = %q, want %s\n%s", name, counters[name], want, out)
		}
	}
}

func TestGraphrunSimilarityWritesOutput(t *testing.T) {
	path := writeGraph(t, 48, 192, 7)
	outPath := filepath.Join(t.TempDir(), "scores.mtx")
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{
		"-workload", "similarity", "-in", path, "-measure", "cosine", "-o", outPath,
	})
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	m, err := sparse.ReadMatrixMarketFile(outPath)
	if err != nil {
		t.Fatalf("reading -o output: %v", err)
	}
	if m.Rows != 48 || m.Cols != 48 || m.NNZ() == 0 {
		t.Fatalf("written scores are %dx%d with %d entries", m.Rows, m.Cols, m.NNZ())
	}
}

// TestGraphrunOutOfCoreMatchesInMemory drives the same power chain with
// and without -mem-budget and asserts the written results are identical
// files — the CLI-level face of the engine's bit-identity contract. The
// out-of-core run reads its input from a segmented container to exercise
// format sniffing along the way.
func TestGraphrunOutOfCoreMatchesInMemory(t *testing.T) {
	mtx := writeFull(t, 16)
	m, err := sparse.ReadMatrixMarketFile(mtx)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(t.TempDir(), "full.seg")
	if err := sparse.WriteSegmentedFile(seg, m, 4); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	memOut := filepath.Join(dir, "mem.mtx")
	oocOut := filepath.Join(dir, "ooc.mtx")

	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{
		"-workload", "power", "-in", mtx, "-k", "4", "-o", memOut,
	}); code != 0 {
		t.Fatalf("in-memory run: exit %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, []string{
		"-workload", "power", "-in", seg, "-k", "4",
		"-mem-budget", "8K", "-spill-dir", t.TempDir(), "-profile", "-o", oocOut,
	}); code != 0 {
		t.Fatalf("out-of-core run: exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"ooc_tiles", "ooc_tile_plan_hits", "ooc_peak_tracked_bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("-profile output is missing %q:\n%s", want, out)
		}
	}
	a, err := os.ReadFile(memOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(oocOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("out-of-core result file differs from the in-memory run")
	}
}

func TestGraphrunBadBudget(t *testing.T) {
	path := writeGraph(t, 16, 48, 1)
	for _, bad := range []string{"12X", "-4M", "zero", "0"} {
		var stdout, stderr bytes.Buffer
		if code := run(&stdout, &stderr, []string{"-in", path, "-mem-budget", bad}); code != 2 {
			t.Errorf("-mem-budget %q: exit %d, want 2", bad, code)
		}
	}
}

func TestGraphrunBadUsage(t *testing.T) {
	path := writeGraph(t, 16, 48, 1)
	cases := []struct {
		name string
		args []string
	}{
		{"missing input", []string{"-workload", "mcl"}},
		{"unknown workload", []string{"-workload", "pagerank", "-in", path}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(&stdout, &stderr, tc.args); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-workload", "mcl", "-in", filepath.Join(t.TempDir(), "missing.mtx")}); code != 1 {
		t.Errorf("unreadable input: exit %d, want 1", code)
	}
}
