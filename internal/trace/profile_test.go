package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// goldenProfile is a fully-populated Profile with fixed values — the JSON
// it encodes to is the interchange schema every -profile consumer reads.
func goldenProfile() *Profile {
	return &Profile{
		WallSeconds: 0.125,
		Phases: []PhaseBreakdown{
			{Phase: string(PhaseSymbolic), Calls: 1, Seconds: 0.025, Share: 0.2, Items: 1000},
			{Phase: string(PhaseClassify), Calls: 1, Seconds: 0.0125, Share: 0.1, Items: 64},
			{Phase: string(PhaseExpansion), Calls: 2, Seconds: 0.075, Share: 0.6, Items: 512},
			{Phase: string(PhaseOther), Calls: 1, Seconds: 0.0125, Share: 0.1},
		},
		Counters: map[string]int64{
			CounterPairs: 64,
			CounterFlops: 4096,
			CounterNNZC:  512,
		},
		Gauges: map[string]float64{
			GaugeAlpha: 32,
			GaugeBeta:  2.5,
		},
	}
}

// TestProfileJSONGolden pins the Profile JSON encoding byte-for-byte.
// Profile documents its field set as a stable schema; a diff here means a
// consumer-visible format change — update the golden file (go test
// -update) only together with the consumers and docs.
func TestProfileJSONGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenProfile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "profile_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Profile JSON schema drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRecorderProfileJSONKeys checks that a live recorder's profile
// round-trips through JSON with exactly the documented key set — no
// accidental field additions reach consumers unpinned.
func TestRecorderProfileJSONKeys(t *testing.T) {
	r := New()
	r.Observe(PhaseExpansion, 9, time.Millisecond)
	r.Add(CounterNNZC, 9)
	r.Set(GaugeAlpha, 32)

	raw, err := json.Marshal(r.Profile())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for k := range top {
		switch k {
		case "wall_seconds", "phases", "counters", "gauges":
		default:
			t.Errorf("unexpected top-level profile key %q", k)
		}
	}
	var phases []map[string]json.RawMessage
	if err := json.Unmarshal(top["phases"], &phases); err != nil {
		t.Fatal(err)
	}
	for _, ph := range phases {
		for k := range ph {
			switch k {
			case "phase", "calls", "seconds", "share", "items":
			default:
				t.Errorf("unexpected phase key %q", k)
			}
		}
	}
}

// TestWriteCSV checks the CSV rendering: header plus one row per phase.
func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenProfile().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), buf.String())
	}
	if lines[0] != "phase,calls,seconds,share,items" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "symbolic-nnz,1,0.025,0.2000,1000") {
		t.Errorf("CSV first row = %q", lines[1])
	}
}
