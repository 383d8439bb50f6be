// Package prom owns the Prometheus text exposition format (version
// 0.0.4) for the module: a small typed Registry of labelled counter,
// gauge and histogram families that spgemmd renders on /metrics, and
// Parse plus Merge so the cluster router can read its instances' scrapes,
// relabel them and render the union through the same Write. No other
// package formats or parses exposition lines.
package prom

import (
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of a rendered exposition.
const ContentType = "text/plain; version=0.0.4"

// Metric types, as a "# TYPE" line names them.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
	TypeUntyped   = "untyped"
)

// Label is one name="value" pair of a sample.
type Label struct{ Name, Value string }

// Sample is one exposition line: a sample name (the family name, or a
// histogram's name_bucket, name_sum and name_count), its labels in
// order, and its value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Family is one metric: its "# TYPE" line and the samples under it.
type Family struct {
	Name    string
	Type    string
	Samples []Sample
}

// Write renders fams in order, each as its "# TYPE" line followed by its
// samples; a family with no samples still gets its TYPE line. Label
// values are Go-quoted. Integral values print as integers; histogram sums
// and every other value print in the shortest %g form, which Parse reads
// back to the same float.
func Write(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		b = append(b, "# TYPE "+f.Name+" "+f.Type+"\n"...)
		for _, s := range f.Samples {
			b = append(b, s.Name...)
			sep := byte('{')
			for _, l := range s.Labels {
				b = append(append(append(b, sep), l.Name...), '=')
				b = strconv.AppendQuote(b, l.Value)
				sep = ','
			}
			if len(s.Labels) > 0 {
				b = append(b, '}')
			}
			b = append(b, ' ')
			if v := s.Value; v == math.Trunc(v) && math.Abs(v) < 1e18 && s.Name != f.Name+"_sum" {
				b = strconv.AppendInt(b, int64(v), 10)
			} else {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// Parse reads a text exposition. A "# TYPE" line opens a family and every
// sample joins the family most recently opened; a sample before any TYPE
// line opens an untyped family of its own name. Timestamps, other
// comments, blank lines and malformed lines are dropped, so Parse accepts
// any input, and the text Write makes of its result is a fixpoint: Parse
// then Write reproduce it. Families come back in input order, one per
// TYPE line; Merge folds repeated names.
func Parse(data []byte) []Family {
	var fams []Family
	for line := range strings.SplitSeq(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && validName(f[2], true) &&
				slices.Contains([]string{TypeCounter, TypeGauge, TypeHistogram, "summary", TypeUntyped}, f[3]) {
				fams = append(fams, Family{Name: f[2], Type: f[3]})
			}
			continue
		}
		s, ok := parseSample(line)
		if !ok {
			continue
		}
		if len(fams) == 0 {
			fams = append(fams, Family{Name: s.Name, Type: TypeUntyped})
		}
		last := &fams[len(fams)-1]
		last.Samples = append(last.Samples, s)
	}
	return fams
}

// Merge folds families that share a name into the first of them, keeping
// first-seen order and the first family's type, so the result carries one
// "# TYPE" line per name as the format requires.
func Merge(fams []Family) []Family {
	at := make(map[string]int, len(fams))
	var out []Family
	for _, f := range fams {
		if i, ok := at[f.Name]; ok {
			out[i].Samples = append(out[i].Samples, f.Samples...)
			continue
		}
		at[f.Name] = len(out)
		f.Samples = slices.Clip(f.Samples) // appends must not write into the caller's array
		out = append(out, f)
	}
	return out
}

// validName reports whether s is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
// or, with colon false, a label name (no colons).
func validName(s string, colon bool) bool {
	for i, c := range []byte(s) {
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9' || colon && c == ':') {
			return false
		}
	}
	return s != ""
}

// parseSample reads `name{label="value",...} value [timestamp]`.
func parseSample(line string) (Sample, bool) {
	end := strings.IndexAny(line, "{ \t")
	if end < 0 || !validName(line[:end], true) {
		return Sample{}, false
	}
	s, rest := Sample{Name: line[:end]}, line[end:]
	if rest[0] == '{' {
		for rest = rest[1:]; !strings.HasPrefix(rest, "}"); rest = strings.TrimPrefix(rest, ",") {
			name, after, ok := strings.Cut(rest, "=")
			q, err := strconv.QuotedPrefix(after)
			if !ok || !validName(name, false) || err != nil || q[0] != '"' {
				return Sample{}, false
			}
			v, _ := strconv.Unquote(q) // QuotedPrefix accepted it
			s.Labels = append(s.Labels, Label{name, v})
			rest = after[len(q):]
		}
		rest = rest[1:]
	}
	f := strings.Fields(rest)
	if len(f) == 0 || len(f) > 2 || (rest[0] != ' ' && rest[0] != '\t') {
		return Sample{}, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	s.Value = v
	return s, err == nil
}
