package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/internal/bench"
)

func TestListExperiments(t *testing.T) {
	var b strings.Builder
	listExperiments(&b)
	out := b.String()
	for _, id := range []string{"tab1", "fig8", "fig16b", "casestudy"} {
		if !strings.Contains(out, id) {
			t.Fatalf("listing missing %s:\n%s", id, out)
		}
	}
}

func TestRunExperimentsWithCSV(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	cfg := bench.Config{Scale: 32, Datasets: []string{"as-caida", "harbor"}}
	if err := runExperiments(&b, []string{"fig3c", "tab1"}, cfg, dir); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fig3c") || !strings.Contains(out, "Table I") {
		t.Fatalf("output missing experiments:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("expected CSV exports, found %d files", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "tab1_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "TITAN Xp") {
		t.Fatal("CSV content missing devices")
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	var b strings.Builder
	if err := runExperiments(&b, []string{"fig99"}, bench.Config{Scale: 32}, ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentsAllExpansion(t *testing.T) {
	// "all" must expand to the full registry; run the cheapest (tab1) by
	// verifying expansion rather than executing everything here.
	var b strings.Builder
	cfg := bench.Config{Scale: 32, Datasets: []string{"as-caida"}}
	if err := runExperiments(&b, []string{"tab1"}, cfg, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "target system configurations") {
		t.Fatal("tab1 output missing")
	}
}

func TestRunOOCMode(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := runOOC(&b, 1<<20, bench.Config{Scale: 32, Datasets: []string{"as-caida"}}, dir); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "out-of-core") || !strings.Contains(out, "as-caida") {
		t.Fatalf("output missing the comparison table:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "ooc_budget.csv")); err != nil {
		t.Fatalf("CSV export missing: %v", err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{"512": 512, "4K": 4 << 10, "64m": 64 << 20, "2G": 2 << 30}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"12X", "-4M", "K", "0"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) accepted", bad)
		}
	}
}

func TestRunProfileShowsFiredPhasesOnly(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	out := filepath.Join(dir, "profile.json")
	if err := runProfile(&b, out, bench.Config{Scale: 32, Datasets: []string{"as-caida"}, Workers: 1}, ""); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "expansion") || !strings.Contains(text, "classification") {
		t.Fatalf("profile table missing fired phases:\n%s", text)
	}
	for _, idle := range []string{"pipeline.expand", "ooc.load", "ooc.merge"} {
		if strings.Contains(text, idle) {
			t.Fatalf("profile table shows phase %s, which never fired:\n%s", idle, text)
		}
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("per-phase record missing: %v", err)
	}
}
