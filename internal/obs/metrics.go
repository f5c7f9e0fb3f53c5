package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Counters hold
// integer counts (not floats) so concurrent increments commute exactly and
// exposition is deterministic for a given set of events.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into a fixed bucket layout declared at
// registration time. Fixed layouts keep exposition deterministic: the
// bucket bounds, their order, and the series set never depend on the
// observed values. The sum is a float64 accumulated with CAS; when the
// observed values are integral (item counts, byte counts) the sum is
// exact regardless of observation order.
//
// Every histogram in this registry measures a non-negative quantity
// (durations, counts, bytes), so NaN and negative observations can only
// be bugs in the caller — and admitting them would poison the series
// permanently (a single NaN turns the sum into NaN forever; a negative
// value lands in the lowest bucket and drags the sum down). Observe
// drops them into a typed counter instead, so the corruption is visible
// without being contagious.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	drops  Counter        // NaN/negative observations rejected
}

// Observe records one value. NaN and negative values are rejected and
// counted in Drops instead of corrupting the bucket counts and sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		h.drops.Inc()
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Drops returns how many observations were rejected as NaN or negative.
func (h *Histogram) Drops() int64 { return h.drops.Value() }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

type metricType uint8

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instance of a metric family.
type series struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series // key: label values joined with \xff
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), values...)}
		switch f.typ {
		case counterType:
			s.counter = &Counter{}
		case gaugeType:
			s.gauge = &Gauge{}
		case histogramType:
			s.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.series[key] = s
	}
	return s
}

// Registry owns a set of metric families. Registration is idempotent for
// an identical schema and panics on a conflicting one (same name, different
// type, labels, or buckets) — metric identity is a programming contract,
// not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// collectors run (in registration order) at the start of every
	// Snapshot, refreshing gauges whose source of truth lives outside the
	// registry — runtime stats, rolling-window quantiles. Keyed by name so
	// re-registration replaces rather than stacks.
	collectors     map[string]func()
	collectorOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// RegisterCollector installs fn to run at the start of every Snapshot
// (and therefore every Prometheus/JSON exposition), before the families
// are read. Collectors refresh pull-style gauges — runtime stats, rolling
// quantiles — that have no natural event to update them. Registering the
// same name again replaces the previous collector, so packages that
// register at construction time stay idempotent per registry. fn must not
// call Snapshot (or anything that exposes the registry) itself.
func (r *Registry) RegisterCollector(name string, fn func()) {
	if name == "" || fn == nil {
		panic("obs: RegisterCollector needs a name and a function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.collectors == nil {
		r.collectors = make(map[string]func())
	}
	if _, ok := r.collectors[name]; !ok {
		r.collectorOrder = append(r.collectorOrder, name)
	}
	r.collectors[name] = fn
}

// collect runs the registered collectors outside the registry lock (they
// set gauges, which take no registry-level lock).
func (r *Registry) collect() {
	r.mu.Lock()
	fns := make([]func(), 0, len(r.collectorOrder))
	for _, name := range r.collectorOrder {
		fns = append(fns, r.collectors[name])
	}
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

func (r *Registry) register(name, help string, typ metricType, labels []string, bounds []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l)
	}
	if typ == histogramType {
		if len(bounds) == 0 {
			panic("obs: histogram " + name + " needs at least one bucket bound")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic("obs: histogram " + name + " bucket bounds must be strictly increasing")
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic("obs: metric " + name + " re-registered with a different schema")
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterType, nil, nil).get(nil).counter
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, gaugeType, nil, nil).get(nil).gauge
}

// Histogram registers (or fetches) an unlabelled histogram with the given
// ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, histogramType, nil, bounds).get(nil).hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec " + name + " needs at least one label (use Counter)")
	}
	return &CounterVec{f: r.register(name, help, counterType, labels, nil)}
}

// With returns the counter for one label-value tuple, creating it on first
// use. The returned handle is stable; hot paths should resolve it once.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// HistogramVec is a histogram family with labels; every series shares the
// family's fixed bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec " + name + " needs at least one label (use Histogram)")
	}
	return &HistogramVec{f: r.register(name, help, histogramType, labels, bounds)}
}

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

func mustValidName(name string) {
	if name == "" {
		panic("obs: empty metric or label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic("obs: invalid metric or label name " + name)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
