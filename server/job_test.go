package server

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCOOPayloadToCSRRejectsOversized: dimensions past the wire bound are
// refused before anything is allocated for them.
func TestCOOPayloadToCSRRejectsOversized(t *testing.T) {
	for _, p := range []COOPayload{
		{Rows: 1 << 40, Cols: 1},
		{Rows: 1, Cols: 1 << 40},
		{Rows: maxPayloadDim + 1, Cols: maxPayloadDim + 1},
	} {
		if _, err := p.ToCSR(); err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Errorf("%dx%d payload: err = %v, want a dimension-limit error", p.Rows, p.Cols, err)
		}
	}
}

// FuzzCOOPayloadToCSR feeds arbitrary request bodies through the inline
// operand decoder: ToCSR must either return an error or a deeply valid
// matrix of the declared shape, never panic or exhaust memory.
func FuzzCOOPayloadToCSR(f *testing.F) {
	f.Add(`{"rows": 2, "cols": 3, "i": [0, 1, 1], "j": [2, 0, 0], "v": [1.5, -2, 4]}`)
	f.Add(`{"rows": 0, "cols": 0, "i": [], "j": [], "v": []}`)
	f.Add(`{"rows": 1099511627776, "cols": 1, "i": [], "j": [], "v": []}`)
	f.Add(`{"rows": -1, "cols": 2, "i": [], "j": [], "v": []}`)
	f.Add(`{"rows": 2, "cols": 2, "i": [5], "j": [0], "v": [1]}`)
	f.Add(`{"rows": 2, "cols": 2, "i": [0, 1], "j": [0], "v": [1]}`)
	f.Add(`{"rows": 2, "cols": 2, "i": [0, 0], "j": [1, 1], "v": [1e308, 1e308]}`)
	f.Fuzz(func(t *testing.T, body string) {
		var p COOPayload
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			return
		}
		m, err := p.ToCSR()
		if err != nil {
			return
		}
		if m.Rows != p.Rows || m.Cols != p.Cols {
			t.Fatalf("decoded %dx%d from a %dx%d payload", m.Rows, m.Cols, p.Rows, p.Cols)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder accepted a structurally invalid matrix: %v", err)
		}
		if err := m.CheckDeep(); err != nil {
			t.Fatalf("decoder accepted a deeply invalid matrix: %v", err)
		}
	})
}

// TestTerminalJobsDropOperands checks that a job stops pinning its operands
// once it is terminal: a finished multiply, a failed multiply and a
// finished pipeline run each keep neither the resolved matrices nor the
// inline payloads they were decoded from.
func TestTerminalJobsDropOperands(t *testing.T) {
	a := testNetwork(t, 200, 2000, 3)
	s, ts := newTestServer(t, Config{Workers: 1}, nil)

	ids := map[string]string{
		submit(t, ts.URL, MultiplyRequest{
			A: Operand{COO: PayloadFromCSR(a)}, B: &Operand{COO: PayloadFromCSR(a)},
		}): StateDone,
		submit(t, ts.URL, MultiplyRequest{
			A: Operand{COO: PayloadFromCSR(a)}, Accumulator: "radix",
		}): StateFailed,
		submitPipeline(t, ts.URL, PipelineRequest{
			A: Operand{COO: PayloadFromCSR(a)}, Workload: "power",
		}): StateDone,
	}
	for id, want := range ids {
		if st := pollDone(t, ts.URL, id); st.State != want {
			t.Fatalf("job %s: state %s (%s), want %s", id, st.State, st.Error, want)
		}
		s.jobs.mu.Lock()
		j := s.jobs.jobs[id]
		pinned := j.a != nil || j.b != nil || j.req.A.COO != nil ||
			(j.req.B != nil && j.req.B.COO != nil) || (j.preq != nil && j.preq.A.COO != nil)
		s.jobs.mu.Unlock()
		if pinned {
			t.Fatalf("%s job %s still holds its operands", want, id)
		}
	}
}
