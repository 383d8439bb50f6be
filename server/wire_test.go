package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// churnBody is a serve-churn-shaped request: one rmat(n, nnz) structure
// inline. serve-churn sends rmat(1024, 8192), about 200 KB of JSON.
func churnBody(t testing.TB, n, nnz int) []byte {
	t.Helper()
	m, err := rmat.Generate(n, nnz, rmat.Default, 7)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(MultiplyRequest{A: Operand{COO: PayloadFromCSR(m)}, Class: "churn"})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// referenceDecode is the semantics DecodeRequest promises: encoding/json
// with unknown fields rejected.
func referenceDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sameBits is reflect.DeepEqual that also tells floats apart by their bits,
// so -0 and +0 differ.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// checkDecode decodes data as a T both ways and fails on any difference in
// the error or the decoded value.
func checkDecode[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	gotErr := DecodeRequest(data, &got)
	wantErr := referenceDecode(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T from %q: error %v, encoding/json says %v", got, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%T from %q:\n got %+v\nwant %+v", got, data, got, want)
	}
}

// TestScanDecodesCanonicalBodies pins the fast path: json.Marshal of a
// request with every field set must decode without the fallback, and to
// the value encoding/json decodes. A field added to a request type with
// a kind or a struct type the scanner does not decode fails here.
func TestScanDecodesCanonicalBodies(t *testing.T) {
	coo := &COOPayload{Rows: 3, Cols: 4, I: []int{0, 2, 2}, J: []int{3, 0, 1}, V: []float64{-0.0, 1.5e-300, -2}}
	coo.V[0] = math.Copysign(0, -1)
	yes := true
	bodies := []any{
		&MultiplyRequest{
			A: Operand{COO: coo}, B: &Operand{Name: "g\u00e9ant"}, Class: "c", Algorithm: "bhSPARSE", GPU: "TITAN Xp",
			Accumulator: "hash", Alpha: 0.25, Beta: 1e22, SplitFactor: -3, LimitFactor: 7,
			ReturnValues: true, Profile: true, TimeoutMillis: 1 << 40,
		},
		&PipelineRequest{
			A: Operand{Name: "net"}, Workload: WorkloadMCL, Class: "c", K: 4, Collapse: true, SelfLoops: true,
			StopOnFixpoint: true, Inflation: 2.5, PruneTol: 1e-4, Epsilon: 1e-6, MaxIterations: 9,
			Measure: "cosine", Mask: "new", MinScore: 0.5, Algorithm: "cuSPARSE", GPU: "TITAN Xp",
			ReturnValues: true, ReturnClusters: &yes, Profile: true, TimeoutMillis: 5,
		},
		&RegisterRequest{Name: "net", COO: coo},
		&MultiplyRequest{A: Operand{COO: &COOPayload{I: []int{}, J: []int{}, V: []float64{}}}},
	}
	for _, want := range bodies {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(want).Elem())
		if !scanRequest(data, got.Interface()) {
			t.Fatalf("canonical %T body fell back to encoding/json: %s", want, data)
		}
		if !reflect.DeepEqual(got.Interface(), want) || !sameBits(got, reflect.ValueOf(want)) {
			t.Fatalf("%T decoded to %+v, want %+v", want, got.Elem(), reflect.ValueOf(want).Elem())
		}
	}
	var req MultiplyRequest
	if !scanRequest(churnBody(t, 1024, 8192), &req) {
		t.Fatal("churn body fell back to encoding/json")
	}
}

// TestScanLeavesNonCanonicalBodies lists inputs the scanner must hand to
// encoding/json, each for the reason noted; DecodeRequest must still
// agree with encoding/json on all of them.
func TestScanLeavesNonCanonicalBodies(t *testing.T) {
	for _, body := range []string{
		`{"ROWS":2}`,                    // case-variant key
		`{"A":{"name":"x"}}`,            // case-variant key
		`{"a":{"nam\u0065":"x"}}`,       // escaped key
		`{"a":{"name":"x\ty"}}`,         // escaped string
		"{\"a\":{\"name\":\"x\xffy\"}}", // invalid UTF-8
		`{"a":{"name":"x"},"a":{}}`,     // duplicate key
		`{"b":null}`,                    // null
		`{"split_factor":01}`,           // leading zero
		`{"split_factor":1e2}`,          // exponent in an integer field
		`{"split_factor":1.0}`,          // fraction in an integer field
		`{"timeout_ms":1234567890123456789}`,
		`{"alpha":1.e5}`,            // malformed fraction
		`{"alpha":1e400}`,           // out of range
		`{"alpha":"1"}`,             // string for a number
		`{"nope":1}`,                // unknown key
		"{\"a\": {\"name\":\"x\"}}", // whitespace
		`{"a":{}}` + "\n",           // trailing whitespace
		`{"a":{}} x`,                // trailing bytes
		`{"a":{}}{}`,                // a second value
		`{"a":{},}`,                 // trailing comma
		`{"profile":truex}`,         // bad literal
		`null`,
		`[]`,
		``,
	} {
		var req MultiplyRequest
		if scanRequest([]byte(body), &req) {
			t.Errorf("scanner accepted %q", body)
		}
		checkDecode[MultiplyRequest](t, []byte(body))
	}
	// A request that already holds a value is merged into by
	// encoding/json; the scanner leaves it alone.
	req := MultiplyRequest{Class: "old"}
	if scanRequest([]byte(`{"profile":true}`), &req) {
		t.Error("scanner decoded into a non-zero request")
	}
}

// FuzzDecodeRequest requires DecodeRequest to agree with encoding/json on
// arbitrary bytes for every request type: the same error text, and the
// same value down to the bits of every float.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(churnBody(f, 32, 128))
	f.Add([]byte(`{"a":{"coo":{"rows":2,"cols":2,"i":[0,1],"j":[1,0],"v":[0.5,-2]}},"b":{"name":"m"},"profile":true}`))
	f.Add([]byte(`{"a":{"name":"g"},"workload":"mcl","k":3,"inflation":2,"return_clusters":false}`))
	f.Add([]byte(`{"name":"m","coo":{"rows":1,"cols":1,"i":[0],"j":[0],"v":[1]}}`))
	f.Add([]byte(`{"ROWS":2}`))
	f.Add([]byte(`{"rowſ":3}`))
	f.Add([]byte(`{"rows":1,"rows":null}`))
	f.Add([]byte(`{"coo":{"v":[-0]}}`))
	f.Add([]byte(`{"coo":{"v":[1.e5]}}`))
	f.Add([]byte(`{"coo":{"rows":1e2}}`))
	f.Add([]byte(`{"coo":{"v":[1e400]}}`))
	f.Add([]byte(`{"a":{"coo":{"i":[-0],"v":[-0,0,1E-400]}}}`))
	f.Add([]byte(`{"n\u0061me":"x","coo":{}}`))
	f.Add([]byte(`{"name":"\u00e9\n","coo":{}}`))
	f.Add([]byte(`{"name":"x","coo":{}} garbage`))
	f.Add([]byte(`{"a":{"name":"x"}}   `))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[MultiplyRequest](t, data)
		checkDecode[PipelineRequest](t, data)
		checkDecode[RegisterRequest](t, data)
	})
}

// TestBodyPastCapIsRejected pins the one-read body cap: a body longer than
// MaxBodyBytes answers 400 even when a complete request ends inside the
// cap.
func TestBodyPastCapIsRejected(t *testing.T) {
	s, err := New(Config{MaxBodyBytes: 1 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"name":"m","coo":{"rows":1,"cols":1,"i":[0],"j":[0],"v":[1]}}`
	for _, tc := range []struct {
		pad  int
		want int
	}{{0, http.StatusCreated}, {2 << 10, http.StatusBadRequest}} {
		req := httptest.NewRequest(http.MethodPost, "/v1/matrices", strings.NewReader(body+strings.Repeat(" ", tc.pad)))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%d bytes of padding: status %d (%s), want %d", tc.pad, rec.Code, rec.Body, tc.want)
		}
	}
}

// BenchmarkDecodeMultiplyRequest decodes a serve-churn-shaped body with
// DecodeRequest and with encoding/json alone.
func BenchmarkDecodeMultiplyRequest(b *testing.B) {
	body := churnBody(b, 1024, 8192)
	for _, bc := range []struct {
		name   string
		decode func([]byte, any) error
	}{{"wire", DecodeRequest}, {"encoding-json", referenceDecode}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var req MultiplyRequest
				if err := bc.decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
