package server

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg"
)

// TestServerAccumulatorField covers the accumulator knob on the wire: every
// strategy produces the same product, an unknown name fails as a client
// error, every strategy shares the structure's one plan-cache entry (the
// accumulator is a run choice, not part of the plan), and the
// per-strategy row counts surface in /metrics.
func TestServerAccumulatorField(t *testing.T) {
	a := testNetwork(t, 400, 6000, 13)
	s, ts := newTestServer(t, Config{Workers: 1}, nil)

	want, err := blockreorg.Multiply(a, a, blockreorg.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, accum := range []string{"", "auto", "dense", "hash", "sort"} {
		id := submit(t, ts.URL, MultiplyRequest{
			A: Operand{COO: PayloadFromCSR(a)}, Accumulator: accum, ReturnValues: true,
		})
		st := pollDone(t, ts.URL, id)
		if st.State != StateDone {
			t.Fatalf("accumulator %q: job failed: %s %s", accum, st.ErrorKind, st.Error)
		}
		got, err := st.Result.Values.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.C, 1e-9) {
			t.Fatalf("accumulator %q: product diverges from direct Multiply", accum)
		}
	}

	// One structure, one entry: the first run misses and the other four
	// rebind its plan.
	if stats := s.Cache().Stats(); stats.Hits != 4 || stats.Misses != 1 {
		t.Fatalf("plan cache: %d hits, %d misses; want 4 and 1 (one entry per structure)",
			stats.Hits, stats.Misses)
	}

	// A hit fills the product structure the first run left on the plan,
	// with no per-row strategy, so each forced strategy gets a cold run on
	// a structure of its own. Each run's rows reach /metrics under the
	// host strategy that merged them: the host has no table, so a forced
	// hash run merges dense and counts as dense.
	for i, run := range []struct{ accum, counted string }{
		{"dense", "dense"}, {"hash", "dense"}, {"sort", "sort"},
	} {
		before := accumRows(t, ts.URL)
		id := submit(t, ts.URL, MultiplyRequest{
			A: Operand{COO: PayloadFromCSR(testNetwork(t, 400, 6000, uint64(14+i)))}, Accumulator: run.accum,
		})
		if st := pollDone(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("cold %s run: job failed: %s %s", run.accum, st.ErrorKind, st.Error)
		}
		after := accumRows(t, ts.URL)
		for _, strategy := range []string{"dense", "sort"} {
			if grew := after[strategy] > before[strategy]; grew != (strategy == run.counted) {
				t.Errorf("cold %s run: spgemmd_accum_rows_total{strategy=%q} went %d -> %d, want growth only under %q",
					run.accum, strategy, before[strategy], after[strategy], run.counted)
			}
		}
	}

	// An unknown strategy is a client fault.
	id := submit(t, ts.URL, MultiplyRequest{
		A: Operand{COO: PayloadFromCSR(a)}, Accumulator: "radix",
	})
	st := pollDone(t, ts.URL, id)
	if st.State != StateFailed || st.ErrorKind != FailClient {
		t.Fatalf("unknown accumulator: state %s kind %s, want failed/client", st.State, st.ErrorKind)
	}
	if !strings.Contains(st.Error, "radix") {
		t.Fatalf("unknown accumulator: error does not name it: %s", st.Error)
	}
}

// accumRows scrapes /metrics for the merged-row counts per host strategy,
// failing if a series is missing or a hash series is exposed.
func accumRows(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `spgemmd_accum_rows_total{strategy="hash"}`) {
		t.Fatalf("metrics expose a hash row series:\n%s", body)
	}
	rows := map[string]int{}
	for _, strategy := range []string{"dense", "sort"} {
		re := regexp.MustCompile(`spgemmd_accum_rows_total\{strategy="` + strategy + `"\} (\d+)`)
		m := re.FindStringSubmatch(string(body))
		if m == nil {
			t.Fatalf("metrics missing spgemmd_accum_rows_total{strategy=%q}:\n%s", strategy, body)
		}
		rows[strategy], _ = strconv.Atoi(m[1])
	}
	return rows
}
