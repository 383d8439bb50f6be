package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Request decoding. Every POST body spgemmd accepts goes through
// DecodeRequest. encoding/json with DisallowUnknownFields is the reference
// semantics; a single-pass scanner decodes the canonical wire form — what
// json.Marshal of the request types emits, and so what every client in
// this repository sends — straight into the request struct. It skips
// encoding/json's separate validation scan, and it fills the COO arrays,
// nearly all of a body's bytes, in typed loops into exactly sized slices
// instead of per element through reflection. Canonical means:
// object keys spelled exactly as the struct tags, each at most once;
// strings without escapes; JSON-grammar numbers (integers of at most 18
// digits in integer fields); true and false; and no whitespace. On the
// first byte outside that form the scanner gives up and the same bytes go
// to encoding/json, which then decides the result and the error: escapes,
// case-variant keys, duplicate keys, null, unknown keys, malformed
// numbers, whitespace and trailing bytes all take that path.

// DecodeRequest decodes one request body into v, which must point to a
// MultiplyRequest, PipelineRequest or RegisterRequest (any other type goes
// straight to encoding/json). The outcome — the decoded value and the
// error — is that of a json.Decoder with DisallowUnknownFields reading
// data; the scanner only makes canonical bodies cheaper.
func DecodeRequest(data []byte, v any) error {
	if scanRequest(data, v) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeBody reads a size-capped request body in one pass and decodes it
// with DecodeRequest. A body longer than maxBytes is an error even when a
// complete JSON value ends before the cap.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBytes {
		buf.Grow(int(n) + bytes.MinRead) // the final Read that sees EOF needs MinRead spare bytes
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes)); err != nil {
		return err
	}
	return DecodeRequest(buf.Bytes(), v)
}

// scanRequest is the canonical-form fast path. It reports whether it
// decoded data into v; when it did not, v is untouched. It decodes only
// into a zero request, the case where its result provably matches
// encoding/json's (which merges into whatever v already holds).
func scanRequest(data []byte, v any) bool {
	switch v.(type) {
	case *MultiplyRequest, *PipelineRequest, *RegisterRequest:
	default:
		return false
	}
	dst := reflect.ValueOf(v).Elem()
	if !dst.IsZero() {
		return false
	}
	r := reflect.New(dst.Type()).Elem()
	s := scanner{data: data}
	if !s.value(r) || s.pos != len(data) {
		return false
	}
	dst.Set(r)
	return true
}

// wireKeys lists, for each struct type a request is built from, the JSON
// keys of its fields as their tags spell them.
var wireKeys = func() map[reflect.Type][]string {
	keys := map[reflect.Type][]string{}
	for _, v := range []any{MultiplyRequest{}, PipelineRequest{}, RegisterRequest{}, Operand{}, COOPayload{}} {
		t := reflect.TypeOf(v)
		names := make([]string, t.NumField())
		for i := range names {
			names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
		}
		keys[t] = names
	}
	return keys
}()

// scanner walks data once. Every method reports false, leaving the
// position anywhere, on input outside the canonical form.
type scanner struct {
	data []byte
	pos  int
}

// consume reports whether c is next and steps over it if so.
func (s *scanner) consume(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object scans an object whose keys are drawn from keys, each at most
// once, calling field with the matched key's index when the scanner stands
// before its value.
func (s *scanner) object(keys []string, field func(i int) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint64
	for {
		raw, ok := s.rawString()
		if !ok || !s.consume(':') {
			return false
		}
		k := -1
		for i, key := range keys {
			if string(raw) == key {
				k = i
				break
			}
		}
		if k < 0 || seen&(1<<k) != 0 || !field(k) {
			return false
		}
		seen |= 1 << k
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// rawString scans a string without escapes or control characters whose
// bytes are valid UTF-8, returning its contents.
func (s *scanner) rawString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			raw := s.data[start:s.pos]
			s.pos++
			return raw, utf8.Valid(raw)
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) boolean() (bool, bool) {
	switch rest := s.data[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.pos += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.pos += len("false")
		return false, true
	}
	return false, false
}

// integer scans an optional minus sign and 1–18 digits without a leading
// zero: a JSON integer that cannot overflow int64, so its value is what
// strconv.ParseInt returns. A fraction or exponent after it is left
// unread, and fails the caller's next structural check.
func (s *scanner) integer() (int64, bool) {
	d, i := s.data, s.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		n = n*10 + int64(d[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 18 || (digits > 1 && d[start] == '0') {
		return 0, false
	}
	s.pos = i
	if neg {
		n = -n
	}
	return n, true
}

// intElem scans an integer that fits an int.
func (s *scanner) intElem() (int, bool) {
	n, ok := s.integer()
	return int(n), ok && int64(int(n)) == n
}

// number scans a JSON-grammar number and converts it as encoding/json
// does, with strconv.ParseFloat; a value out of float64 range fails.
func (s *scanner) number() (float64, bool) {
	d, i := s.data, s.pos
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i]-'1' <= 8:
		for i++; i < len(d) && d[i]-'0' <= 9; i++ {
		}
	default:
		return 0, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		j := i
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
		}
		if i == j {
			return 0, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := i
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
		}
		if i == j {
			return 0, false
		}
	}
	// The conversion does not escape, so a canonical number (at most 24
	// bytes) is copied to the stack, not the heap.
	f, err := strconv.ParseFloat(string(d[start:i]), 64)
	if err != nil {
		return 0, false
	}
	s.pos = i
	return f, true
}

// array scans an array of scalars into a new, exactly sized slice (empty,
// not nil, for "[]", as encoding/json decodes it).
func array[T any](s *scanner, dst *[]T, elem func(*scanner) (T, bool)) bool {
	if !s.consume('[') {
		return false
	}
	// Scalars hold no ']', so the elements end at the first one, and each
	// takes at least two bytes with its comma: the capacity is exact for
	// well-formed input and bounded by the body size for any other.
	span := s.data[s.pos:]
	if end := bytes.IndexByte(span, ']'); end >= 0 {
		span = span[:end]
	}
	out := make([]T, 0, min(bytes.Count(span, []byte(","))+1, len(span)/2+1))
	if s.consume(']') {
		*dst = out
		return true
	}
	for {
		v, ok := elem(s)
		if !ok {
			return false
		}
		out = append(out, v)
		if !s.consume(',') {
			*dst = out
			return s.consume(']')
		}
	}
}

// value decodes one JSON value into v, whose kind decides the form it
// takes: a string, a boolean, an integer that fits v, a number, an object
// of a request type's keys, or an array of integers or of numbers. A
// pointer gets a new element, as encoding/json gives a nil one.
func (s *scanner) value(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		raw, ok := s.rawString()
		v.SetString(string(raw))
		return ok
	case reflect.Bool:
		b, ok := s.boolean()
		v.SetBool(b)
		return ok
	case reflect.Int, reflect.Int64:
		n, ok := s.integer()
		if !ok || v.OverflowInt(n) {
			return false
		}
		v.SetInt(n)
		return true
	case reflect.Float64:
		f, ok := s.number()
		v.SetFloat(f)
		return ok
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return s.value(v.Elem())
	case reflect.Struct:
		keys, ok := wireKeys[v.Type()]
		return ok && s.object(keys, func(i int) bool { return s.value(v.Field(i)) })
	case reflect.Slice:
		switch p := v.Addr().Interface().(type) {
		case *[]int:
			return array(s, p, (*scanner).intElem)
		case *[]float64:
			return array(s, p, (*scanner).number)
		}
	}
	return false
}
