package prom

import (
	"bytes"
	"os"
	"sync"
	"testing"
)

// clusterText is a canonical exposition exercising every shape Write
// emits: labelled and unlabelled samples, escaped label values, a
// histogram with a %g sum, and a family with no samples.
const clusterText = `# TYPE cluster_routed_total counter
cluster_routed_total{policy="affinity",affinity_hit="false"} 3
cluster_routed_total{policy="affinity",affinity_hit="true"} 12
# TYPE cluster_scrape_failures gauge
cluster_scrape_failures 0
# TYPE spgemmd_job_seconds histogram
spgemmd_job_seconds_bucket{instance="i0",algorithm="a\"b\\c\nd",le="0.001"} 0
spgemmd_job_seconds_bucket{instance="i0",algorithm="a\"b\\c\nd",le="+Inf"} 2
spgemmd_job_seconds_sum{instance="i0",algorithm="a\"b\\c\nd"} 1.234567e+06
spgemmd_job_seconds_count{instance="i0",algorithm="a\"b\\c\nd"} 2
# TYPE spgemmd_phase_seconds histogram
`

func write(t testing.TB, fams []Family) string {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, fams); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWriteParseRoundTrip(t *testing.T) {
	fams := Parse([]byte(clusterText))
	if len(fams) != 4 || len(fams[3].Samples) != 0 {
		t.Fatalf("parsed %d families (last with %d samples), want 4 with an empty last", len(fams), len(fams[3].Samples))
	}
	if got := fams[2].Samples[0].Labels[1].Value; got != "a\"b\\c\nd" {
		t.Fatalf("escaped label value parsed as %q", got)
	}
	if got := write(t, fams); got != clusterText {
		t.Fatalf("Write(Parse(x)) != x:\n--- got ---\n%s--- want ---\n%s", got, clusterText)
	}
}

func TestParseSkipsWhatItCannotRead(t *testing.T) {
	in := "orphan{a=\"1\"} 5 1700000000000\n" + // before any TYPE: untyped, timestamp dropped
		"# HELP orphan ignored\n" +
		"# TYPE good gauge\n" +
		"good 1\n" +
		"good{bad-label=\"x\"} 2\n" +
		"good{a=\"unterminated} 3\n" +
		"good notanumber\n" +
		"9bad 4\n" +
		"# TYPE good2 nosuchtype\n" +
		"good 1.5\r\n"
	want := "# TYPE orphan untyped\norphan{a=\"1\"} 5\n# TYPE good gauge\ngood 1\ngood 1.5\n"
	if got := write(t, Parse([]byte(in))); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestMergeFoldsRepeatedNames(t *testing.T) {
	a := Parse([]byte("# TYPE x counter\nx{instance=\"i0\"} 1\n# TYPE y gauge\ny 2\n"))
	b := Parse([]byte("# TYPE x counter\nx{instance=\"i1\"} 3\n"))
	got := write(t, Merge(append(a, b...)))
	want := "# TYPE x counter\nx{instance=\"i0\"} 1\nx{instance=\"i1\"} 3\n# TYPE y gauge\ny 2\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if len(a[0].Samples) != 1 {
		t.Fatal("Merge appended into its input's samples")
	}
}

func TestRegistryRendersInRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "k")
	r.Counter("idle_total")
	h := r.Histogram("h_seconds", []float64{0.5, 1})
	n := 7.0
	r.GaugeFunc("g", func() float64 { return n })
	c.Add(2, "b")
	c.Add(1, "a")
	h.Observe(0.25)
	h.Observe(3)
	n = 9 // read at Gather, not at registration
	want := `# TYPE c_total counter
c_total{k="a"} 1
c_total{k="b"} 2
# TYPE idle_total counter
idle_total 0
# TYPE h_seconds histogram
h_seconds_bucket{le="0.5"} 1
h_seconds_bucket{le="1"} 1
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 3.25
h_seconds_count 2
# TYPE g gauge
g 9
`
	if got := write(t, r.Gather()); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryConcurrentUpdates updates and gathers from several
// goroutines at once (run under -race).
func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "k")
	h := r.Histogram("h", []float64{1}, "k")
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := string(rune('a' + i))
			for range 100 {
				c.Add(1, k)
				h.Observe(0.5, k)
				r.Gather()
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, s := range r.Gather()[0].Samples {
		total += s.Value
	}
	if total != 400 {
		t.Fatalf("counter total %v, want 400", total)
	}
}

// FuzzParse feeds Parse arbitrary text: it must not panic, and its Write
// must be a fixpoint — parsing and writing that text again reproduces it.
func FuzzParse(f *testing.F) {
	instance, err := os.ReadFile("../../server/testdata/metrics_golden.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(instance)
	f.Add([]byte(clusterText))
	f.Add([]byte("x{a=\"\\q\"} 1e400\nx 0x1p-2\n# TYPE x summary\nx -0\nx NaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		once := write(t, Parse(data))
		if twice := write(t, Parse([]byte(once))); twice != once {
			t.Fatalf("not a fixpoint:\n--- first ---\n%s--- second ---\n%s", once, twice)
		}
	})
}
