package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the JSONL trace reader: it must
// never panic, and any trace it accepts comes back sorted by arrival.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`{"seq":0,"arrival_s":0,"kind":"multiply","outcome":"done","queue_wait_s":0,"exec_s":0.1}

{"seq":1,"arrival_s":1,"kind":"multiply","outcome":"done","queue_wait_s":0,"exec_s":0.2}
`))
	f.Add([]byte("{\"seq\":0}\nnot json\n"))
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	for _, r := range []Record{
		{ArrivalSeconds: 0.5, Class: "a", Kind: "multiply", FpA: "00000000deadbeef",
			Rows: 64, Cols: 64, NNZ: 512, Outcome: OutcomeDone, QueueWaitSeconds: 0.001,
			ExecSeconds: 0.02, PredictedSeconds: 0.015, PlanCacheHit: true,
			Phases: map[string]float64{"expansion": 0.01, "merge": 0.008}},
		{ArrivalSeconds: 0.25, Class: "b", Kind: "multiply", Outcome: OutcomeRejected},
		{ArrivalSeconds: 0.75, Kind: "multiply", Outcome: FailedOutcome("timeout")},
	} {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].ArrivalSeconds < recs[i-1].ArrivalSeconds {
				t.Fatalf("record %d arrives at %g, before record %d at %g",
					i, recs[i].ArrivalSeconds, i-1, recs[i-1].ArrivalSeconds)
			}
		}
	})
}

// FuzzParseSpec feeds arbitrary bytes to the spec decoder: it must never
// panic, and any spec it returns passes validation.
func FuzzParseSpec(f *testing.F) {
	valid, err := json.Marshal(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	dup := testSpec()
	dup.Classes = append(dup.Classes, dup.Classes[0])
	dupJSON, err := json.Marshal(dup)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dupJSON)
	f.Add([]byte(`{"name":"x","seed":1,"duration_seconds":1,"classes":[],"bogus":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec returned a spec that fails validation: %v", err)
		}
	})
}
