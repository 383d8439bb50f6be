package prom

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families in registration order. Updates and
// Gather take its mutex; Write runs on Gather's snapshot after the mutex
// is released, so a scraper that stops reading never blocks an update.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// family is one registered metric. Everything but series is fixed at
// registration; series is guarded by the registry mutex.
type family struct {
	mu        *sync.Mutex
	name, typ string
	labels    []string
	buckets   []float64      // histograms: upper bounds, ascending
	fn        func() float64 // function-backed families: read at Gather
	series    map[string]*series
}

// series is one label-value combination of a family.
type series struct {
	values []string
	value  float64  // counters and gauges
	counts []uint64 // histograms: counts[i] = observations <= buckets[i]
	count  uint64
	sum    float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(f family) *family {
	f.mu, f.series = &r.mu, make(map[string]*series)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(f.labels) == 0 && f.fn == nil {
		f.at(nil) // an unlabelled family renders its zero before any event
	}
	r.fams = append(r.fams, &f)
	return &f
}

// at returns the series for the label values, creating it at zero.
// Callers hold the registry mutex.
func (f *family) at(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("prom: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	s, ok := f.series[key]
	if !ok {
		s = &series{values: slices.Clone(values), counts: make([]uint64, len(f.buckets))}
		f.series[key] = s
	}
	return s
}

// Counter is a counter family; each label-value combination is a series.
type Counter struct{ f *family }

// Gauge is a gauge family; each label-value combination is a series.
type Gauge struct{ f *family }

// Histogram is a cumulative fixed-bucket histogram family; each
// label-value combination is a series.
type Histogram struct{ f *family }

// Counter registers a counter family with the given label names.
func (r *Registry) Counter(name string, labels ...string) Counter {
	return Counter{r.register(family{name: name, typ: TypeCounter, labels: labels})}
}

// Gauge registers a gauge family with the given label names.
func (r *Registry) Gauge(name string, labels ...string) Gauge {
	return Gauge{r.register(family{name: name, typ: TypeGauge, labels: labels})}
}

// Histogram registers a histogram family with the given ascending bucket
// upper bounds (the +Inf bucket is implicit) and label names.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) Histogram {
	return Histogram{r.register(family{name: name, typ: TypeHistogram, labels: labels, buckets: buckets})}
}

// CounterFunc registers an unlabelled counter whose value fn reports at
// each Gather, for a total another structure already keeps.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	r.register(family{name: name, typ: TypeCounter, fn: fn})
}

// GaugeFunc registers an unlabelled gauge whose value fn reports at each
// Gather.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.register(family{name: name, typ: TypeGauge, fn: fn})
}

// Add adds v to the series with the given label values. Adding zero
// creates the series, so it renders before its first event.
func (c Counter) Add(v float64, values ...string) {
	c.f.mu.Lock()
	c.f.at(values).value += v
	c.f.mu.Unlock()
}

// Set sets the series with the given label values to v.
func (g Gauge) Set(v float64, values ...string) {
	g.f.mu.Lock()
	g.f.at(values).value = v
	g.f.mu.Unlock()
}

// Observe records v in the series with the given label values.
func (h Histogram) Observe(v float64, values ...string) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	s := h.f.at(values)
	for i, ub := range h.f.buckets {
		if v <= ub {
			s.counts[i]++
		}
	}
	s.count++
	s.sum += v
}

// Gather snapshots every family in registration order, series sorted by
// label values. Stateful families are copied under the mutex; the
// function-backed ones are read after it is released, so fn may take
// other locks.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := r.fams
	out := make([]Family, len(fams))
	for i, f := range fams {
		out[i] = f.snapshot()
	}
	r.mu.Unlock()
	for i, f := range fams {
		if f.fn != nil {
			out[i].Samples = []Sample{{Name: f.name, Value: f.fn()}}
		}
	}
	return out
}

// snapshot copies the family's series into samples. Callers hold the
// registry mutex.
func (f *family) snapshot() Family {
	out := Family{Name: f.name, Type: f.typ}
	byValues := func(a, b *series) int { return slices.Compare(a.values, b.values) }
	for _, s := range slices.SortedFunc(maps.Values(f.series), byValues) {
		labels := make([]Label, len(f.labels))
		for i, name := range f.labels {
			labels[i] = Label{name, s.values[i]}
		}
		if f.buckets == nil {
			out.Samples = append(out.Samples, Sample{f.name, labels, s.value})
			continue
		}
		le := func(ub float64, n uint64) Sample {
			return Sample{f.name + "_bucket", append(slices.Clip(labels), Label{"le", strconv.FormatFloat(ub, 'g', -1, 64)}), float64(n)}
		}
		for i, ub := range f.buckets {
			out.Samples = append(out.Samples, le(ub, s.counts[i]))
		}
		out.Samples = append(out.Samples, le(math.Inf(1), s.count),
			Sample{f.name + "_sum", labels, s.sum}, Sample{f.name + "_count", labels, float64(s.count)})
	}
	return out
}
