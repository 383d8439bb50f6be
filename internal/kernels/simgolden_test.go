package kernels

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

var updateSimGolden = flag.Bool("update", false, "rewrite testdata/sim_golden.txt")

// simGoldenCase is one operand pair whose Block Reorganizer launches the
// simulation golden pins.
type simGoldenCase struct {
	name string
	a, b *sparse.CSR
}

// simGoldenCases returns the pinned operands: serve-churn-shaped R-MAT
// squares, the row panels of the analytics workload's collapse power chain
// (its symmetrized R-MAT graph relabelled as seed 1 relabels it, each
// chain step cut into 512-row panels times the graph), and two Table II
// datasets at scale 32.
func simGoldenCases(t testing.TB) []simGoldenCase {
	t.Helper()
	var cases []simGoldenCase
	for seed := uint64(1); seed <= 8; seed++ {
		m, err := rmat.Generate(1024, 8192, rmat.Default, seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, simGoldenCase{fmt.Sprintf("rmat1024-seed%d", seed), m, m})
	}

	g, err := rmat.Generate(2048, 8192, rmat.Default, 0x6d636c)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = g.Symmetrize(); err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewPCG(1, 0x616e616c)).Perm(g.Rows)
	coo := sparse.NewCOO(g.Rows, g.Cols, g.NNZ())
	for i := 0; i < g.Rows; i++ {
		idx, _ := g.Row(i)
		for _, j := range idx {
			coo.Add(perm[i], perm[j], 1)
		}
	}
	base := coo.ToCSR()
	base.Fill(1)
	m := base
	for step := 1; step <= 2; step++ {
		for lo := 0; lo < m.Rows; lo += 512 {
			panel := m.RowPanel(lo, min(lo+512, m.Rows))
			cases = append(cases, simGoldenCase{fmt.Sprintf("power%d-rows%d", step, lo), panel, base})
		}
		if m, err = sparse.Multiply(m, base); err != nil {
			t.Fatal(err)
		}
		m.Fill(1)
	}

	for _, name := range []string{"harbor", "youtube"} {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := spec.Generate(32)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, simGoldenCase{name + "-scale32", d, d})
	}
	return cases
}

// simGoldenDevices are the devices the golden runs the cases on. The
// traced TitanXp, which runs only the square cases, also pins the
// dispatch trace.
func simGoldenDevices() []gpusim.Config {
	traced := gpusim.TitanXp()
	traced.Name += "+trace"
	traced.TraceEvents = 256
	return []gpusim.Config{gpusim.TitanXp(), gpusim.TeslaV100(), traced}
}

// exactFloat renders v as a hexadecimal literal, which round-trips every
// bit.
func exactFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// exactValue renders one field so that two values render alike only when
// they are bitwise equal: floats as hexadecimal literals, slices as their
// length and an FNV-1a digest of their elements.
func exactValue(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return exactFloat(v.Float())
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.String:
		return strconv.Quote(v.String())
	case reflect.Slice:
		h := fnv.New64a()
		for i := 0; i < v.Len(); i++ {
			e := v.Index(i)
			if e.Kind() == reflect.Float64 {
				fmt.Fprintf(h, "%x;", math.Float64bits(e.Float()))
			} else {
				fmt.Fprintf(h, "%+v;", e.Interface())
			}
		}
		return fmt.Sprintf("%d/%016x", v.Len(), h.Sum64())
	}
	panic(fmt.Sprintf("simgolden: no exact form for %s", v.Type()))
}

// simGoldenLine renders one launch's result as one line of the golden: the
// launch, then every exported KernelResult field and every label's
// statistics as name=value tokens.
func simGoldenLine(launch string, res *gpusim.KernelResult) string {
	tokens := []string{launch}
	v := reflect.ValueOf(res).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && f.Name != "Name" {
			tokens = append(tokens, f.Name+"="+exactValue(v.Field(i)))
		}
	}
	for _, l := range res.Labels() {
		s, _ := res.Label(l)
		tokens = append(tokens, fmt.Sprintf("label:%s=%d,%s,%s,%s",
			l, s.Blocks, exactFloat(s.Cycles), exactFloat(s.Span), exactFloat(s.Bytes)))
	}
	return strings.Join(tokens, " ")
}

// TestSimulationGolden runs the Block Reorganizer's launches (the
// precalculation, the split dominators, the reorganized expansion and the
// B-Limited merge) for fixed operands on TitanXp and Tesla V100, and
// compares every field of every KernelResult — float bits, the per-SM
// busy times and the label table — to testdata/sim_golden.txt, one line
// per launch. The golden was generated once, before the simulator's event
// loop was reworked for speed, and pins that the rework changed no
// simulated bit. Regenerate it (go test -update) only together with a
// deliberate change to the model.
func TestSimulationGolden(t *testing.T) {
	cases := simGoldenCases(t)
	var got []string
	for _, dev := range simGoldenDevices() {
		for _, c := range cases {
			if dev.TraceEvents > 0 && c.a != c.b {
				continue
			}
			prod, err := Reorganizer{}.Multiply(c.a, c.b, Options{Device: dev, SkipValues: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, dev.Name, err)
			}
			for _, res := range prod.Report.Kernels {
				launch := strings.ReplaceAll(c.name+"/"+dev.Name+"/"+res.Name, " ", "_")
				got = append(got, simGoldenLine(launch, res))
			}
		}
	}
	golden := filepath.Join("testdata", "sim_golden.txt")
	if *updateSimGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d launches simulated, golden holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(g) != len(w) || g[0] != w[0] {
			t.Errorf("launch %d:\n got: %s\nwant: %s", i, got[i], want[i])
			continue
		}
		for j := 1; j < len(w); j++ {
			if g[j] != w[j] {
				t.Errorf("%s: %s, golden %s", w[0], g[j], w[j])
			}
		}
	}
}
