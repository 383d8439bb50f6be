package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads the vetmod fixture module once per test that needs it.
func loadFixture(t *testing.T) []*Pass {
	t.Helper()
	passes, err := Load(filepath.Join("testdata", "vetmod"), nil)
	if err != nil {
		t.Fatalf("Load(testdata/vetmod): %v", err)
	}
	if len(passes) == 0 {
		t.Fatal("Load returned no packages")
	}
	return passes
}

// findingsFor filters findings to one analyzer within one fixture package.
func findingsFor(fs []Finding, analyzer, pkgDir string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Analyzer != analyzer {
			continue
		}
		if !strings.Contains(filepath.ToSlash(f.Pos.Filename), "/"+pkgDir+"/") {
			continue
		}
		out = append(out, f)
	}
	return out
}

func TestAnalyzers(t *testing.T) {
	passes := loadFixture(t)
	all := RunAll(passes, nil)

	// Each positive fixture must trip its analyzer with the expected
	// message; each negative fixture must stay silent.
	cases := []struct {
		analyzer string
		pkgDir   string
		min      int    // minimum findings (0 = must be silent)
		contains string // substring required in at least one message
	}{
		{"rawindex", "rawindexbad", 3, "Row/Col accessors"},
		{"rawindex", "rawindexok", 0, ""},
		{"nnztrunc", "nnztruncbad", 3, "truncates nnz arithmetic"},
		{"nnztrunc", "nnztruncok", 0, ""},
		{"kernelvalidate", "kernels", 1, "MultiplyBad"},
		{"seededrand", "seededrandbad", 4, "unseeded global generator"},
		{"seededrand", "seededrandok", 0, ""},
		{"scratchmake", "scratchmakebad", 5, "internal/parallel arenas"},
		{"scratchmake", "scratchmakeok", 0, ""},
		{"rawindex", "pipelinebad", 5, "Row/Col accessors"},
		{"rawindex", "pipelineok", 0, ""},
		{"scratchmake", "pipelinebad", 1, "internal/parallel arenas"},
		{"scratchmake", "pipelineok", 0, ""},
		{"pkgdoc", "pkgdocbad", 1, "no package documentation"},
		{"pkgdoc", "pkgdocprefix", 1, "godoc convention"},
		{"pkgdoc", "pkgdocok", 0, ""},
		{"lockheld", "lockheldbad", 5, "held across"},
		{"lockheld", "lockheldok", 0, ""},
		{"ctxflow", "ctxflowbad", 4, "discards the caller's context"},
		{"ctxflow", "ctxflowok", 0, ""},
		{"goroleak", "goroleakbad", 3, "without signaling"},
		{"goroleak", "goroleakok", 0, ""},
		{"spanpair", "spanpairbad", 3, "never closed"},
		{"spanpair", "spanpairok", 0, ""},
		{"poolreturn", "poolreturnbad", 3, "not released"},
		{"poolreturn", "poolreturnok", 0, ""},
		{"filehandle", "filehandlebad", 3, "not closed on every path"},
		{"filehandle", "filehandleok", 0, ""},
	}
	for _, c := range cases {
		got := findingsFor(all, c.analyzer, c.pkgDir)
		if c.min == 0 {
			if len(got) != 0 {
				t.Errorf("%s on %s: want no findings, got %v", c.analyzer, c.pkgDir, got)
			}
			continue
		}
		if len(got) < c.min {
			t.Errorf("%s on %s: want >= %d findings, got %d: %v",
				c.analyzer, c.pkgDir, c.min, len(got), got)
			continue
		}
		matched := false
		for _, f := range got {
			if strings.Contains(f.Message, c.contains) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s on %s: no finding mentions %q in %v",
				c.analyzer, c.pkgDir, c.contains, got)
		}
	}
}

// TestKernelValidateScope checks the rule fires only on the bad entry
// point, not on gated, unexported, or sparse-free functions.
func TestKernelValidateScope(t *testing.T) {
	passes := loadFixture(t)
	got := findingsFor(RunAll(passes, map[string]bool{"kernelvalidate": true}), "kernelvalidate", "kernels")
	if len(got) != 1 {
		t.Fatalf("want exactly 1 kernelvalidate finding, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0].Message, "MultiplyBad") {
		t.Fatalf("finding names wrong function: %v", got[0])
	}
}

// TestSeededRandV1Import checks the v1 import itself is reported.
func TestSeededRandV1Import(t *testing.T) {
	passes := loadFixture(t)
	got := findingsFor(RunAll(passes, map[string]bool{"seededrand": true}), "seededrand", "seededrandbad")
	foundImport := false
	for _, f := range got {
		if strings.Contains(f.Message, "math/rand (v1)") {
			foundImport = true
		}
	}
	if !foundImport {
		t.Fatalf("v1 import not reported; findings: %v", got)
	}
}

// TestOnlyFilter checks RunAll's analyzer subsetting.
func TestOnlyFilter(t *testing.T) {
	passes := loadFixture(t)
	got := RunAll(passes, map[string]bool{"rawindex": true})
	for _, f := range got {
		if f.Analyzer != "rawindex" {
			t.Fatalf("only=rawindex leaked %s finding: %v", f.Analyzer, f)
		}
	}
	if len(got) == 0 {
		t.Fatal("only=rawindex returned nothing")
	}
}

// TestFindingsSorted checks the stable source ordering contract.
func TestFindingsSorted(t *testing.T) {
	passes := loadFixture(t)
	fs := RunAll(passes, nil)
	for i := 1; i < len(fs); i++ {
		if findingLess(fs[i], fs[i-1]) {
			t.Fatalf("findings out of order at %d: %v before %v", i, fs[i-1], fs[i])
		}
	}
}

// TestSuppression checks the //vet:ignore contract: covered findings
// move to the suppressed list, and malformed directives are themselves
// findings.
func TestSuppression(t *testing.T) {
	passes := loadFixture(t)
	res := RunAllResult(passes, nil)
	for _, rule := range []string{"poolreturn", "goroleak"} {
		if got := findingsFor(res.Findings, rule, "suppressok"); len(got) != 0 {
			t.Errorf("%s finding reported despite directive: %v", rule, got)
		}
	}
	sup := 0
	for _, f := range res.Suppressed {
		if strings.Contains(filepath.ToSlash(f.Pos.Filename), "/suppressok/") {
			sup++
		}
	}
	if sup != 2 {
		t.Errorf("want 2 suppressed findings in suppressok, got %d: %v", sup, res.Suppressed)
	}
	if got := findingsFor(res.Findings, "vetignore", "suppressbad"); len(got) != 2 {
		t.Errorf("want 2 malformed-directive findings in suppressbad, got %d: %v", len(got), got)
	}
	// The compatibility wrapper drops the suppressed findings too.
	for _, f := range RunAll(passes, nil) {
		if strings.Contains(filepath.ToSlash(f.Pos.Filename), "/suppressok/") {
			t.Errorf("RunAll leaked a suppressed finding: %v", f)
		}
	}
}

// TestFindingsGolden pins the full fixture run — every finding, in the
// deterministic file:line:col order — against a committed golden. Run
// with UPDATE_GOLDEN=1 to regenerate after intentional rule changes.
func TestFindingsGolden(t *testing.T) {
	passes := loadFixture(t)
	res := RunAllResult(passes, nil)
	var b strings.Builder
	for _, f := range res.Findings {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n",
			vetmodRel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	got := b.String()
	golden := filepath.Join("testdata", "findings_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from golden (UPDATE_GOLDEN=1 regenerates):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// vetmodRel strips everything up to the fixture module root, so the
// golden is machine-independent.
func vetmodRel(filename string) string {
	s := filepath.ToSlash(filename)
	if i := strings.Index(s, "testdata/vetmod/"); i >= 0 {
		return s[i+len("testdata/vetmod/"):]
	}
	return s
}

// TestPatternSelection checks Load's package pattern matching.
func TestPatternSelection(t *testing.T) {
	passes, err := Load(filepath.Join("testdata", "vetmod"), []string{"./kernels"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(passes) != 1 || passes[0].PkgName != "kernels" {
		t.Fatalf("pattern ./kernels selected %d packages", len(passes))
	}
	passes, err = Load(filepath.Join("testdata", "vetmod"), []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(passes) < 7 {
		t.Fatalf("pattern ./... selected only %d packages", len(passes))
	}
}
