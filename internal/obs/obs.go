// Package obs is the facility-wide observability plane: one metrics
// registry, one tracer, shared by every subsystem.
//
// The paper's facility serves many communities from one shared
// storage/compute plane; operating that requires per-subsystem,
// per-tenant visibility as a first-class service. This package
// provides the three legs:
//
//   - a metrics registry — typed counters, gauges and log-bucketed
//     latency histograms with Prometheus text-format exposition.
//     Subsystems either own live instruments (the gateway's request
//     counters and latency histograms) or are absorbed by sampling:
//     CounterFunc/GaugeFunc metrics read a subsystem's existing
//     atomic counters at exposition time, so the DFS, read cache,
//     replication engine, compute master and metadata WAL export
//     without a write-path tax.
//
//   - request tracing — a trace minted at the front door (or adopted
//     from the X-LSDF-Trace header), carried through context.Context,
//     recording named spans (auth, cache lookup, WAN fill, shuffle
//     fetch, reduce) into a bounded in-memory ring of recent traces.
//     Remote spans (worker task attempts) ride completion RPCs back
//     and attach to their trace by ID.
//
//   - runtime profiling hooks — goroutine/heap/GC gauges registered
//     by RegisterRuntimeMetrics, next to net/http/pprof on the
//     daemons' debug listeners.
//
// Hot-path cost is the design constraint: Counter.Add is one atomic
// add, Histogram.Observe is a bits.Len64 and three atomic adds —
// low tens of nanoseconds, pinned by TestHotPathOverheadBound.
//
// Metric naming: lsdf_<subsystem>_<metric>[_total] with at most one
// label, e.g. lsdf_gateway_requests_total{tenant="bio"}. Durations
// are nanoseconds in *_ns histograms. See DESIGN.md §13.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is
// usable; registry-created counters expose themselves at scrape.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Metric types, as exposed in Prometheus TYPE comments.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// series is one exposed time series: a family member with an
// optional single label pair.
type series struct {
	family     string // metric family name
	labelValue string // "" = unlabeled
	read       func() int64
	hist       *Histogram
}

// family groups series of one name under shared HELP/TYPE.
type family struct {
	name  string
	help  string
	typ   string
	label string // label key for vec families ("" = scalar)
}

// Registry holds every registered metric and renders them in
// Prometheus text format. All methods are safe for concurrent use;
// instrument updates (Counter.Add etc.) never take the registry
// lock.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	series   map[string]*series // family + "\x00" + labelValue
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		families: make(map[string]*family),
		series:   make(map[string]*series),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

func (r *Registry) familyLocked(name, help, typ, label string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, label: label}
		r.families[name] = f
		return f
	}
	if f.typ != typ || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q (was %s/%q)",
			name, typ, label, f.typ, f.label))
	}
	return f
}

func seriesKey(name, labelValue string) string { return name + "\x00" + labelValue }

// Counter registers (or returns the existing) scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.counterSeries(name, help, "", "")
}

func (r *Registry) counterSeries(name, help, label, value string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, TypeCounter, label)
	key := seriesKey(name, value)
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{}
	r.counters[key] = c
	r.series[key] = &series{family: name, labelValue: value, read: c.Value}
	return c
}

// CounterFunc registers a sampled counter: fn is called at scrape
// time. This is how existing subsystem counters (atomic fields read
// through their own snapshot methods) join the registry without any
// hot-path change. Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.funcSeries(name, help, TypeCounter, fn)
}

// GaugeFunc registers a sampled gauge (occupancy, queue depth,
// goroutine count): fn is called at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.funcSeries(name, help, TypeGauge, fn)
}

func (r *Registry) funcSeries(name, help, typ string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, typ, "")
	key := seriesKey(name, "")
	r.series[key] = &series{family: name, read: fn}
}

// Histogram registers (or returns the existing) scalar histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.histSeries(name, help, "", "")
}

func (r *Registry) histSeries(name, help, label, value string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, TypeHistogram, label)
	key := seriesKey(name, value)
	if h, ok := r.hists[key]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[key] = h
	r.series[key] = &series{family: name, labelValue: value, hist: h}
	return h
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	r          *Registry
	name, help string
	label      string
	mu         sync.RWMutex
	byValue    map[string]*Counter
}

// CounterVec registers a one-label counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	r.familyLocked(name, help, TypeCounter, label)
	r.mu.Unlock()
	return &CounterVec{r: r, name: name, help: help, label: label, byValue: make(map[string]*Counter)}
}

// With returns the counter for one label value, creating it on first
// use. The returned pointer is cached by callers on their hot paths.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.byValue[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	c = v.r.counterSeries(v.name, v.help, v.label, value)
	v.mu.Lock()
	v.byValue[value] = c
	v.mu.Unlock()
	return c
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct {
	r          *Registry
	name, help string
	label      string
	mu         sync.RWMutex
	byValue    map[string]*Histogram
}

// HistogramVec registers a one-label histogram family.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	r.mu.Lock()
	r.familyLocked(name, help, TypeHistogram, label)
	r.mu.Unlock()
	return &HistogramVec{r: r, name: name, help: help, label: label, byValue: make(map[string]*Histogram)}
}

// With returns the histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.byValue[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	h = v.r.histSeries(v.name, v.help, v.label, value)
	v.mu.Lock()
	v.byValue[value] = h
	v.mu.Unlock()
	return h
}

// sortedSeries snapshots the series list ordered by family name then
// label value — the stable exposition order the golden test pins.
func (r *Registry) sortedSeries() ([]*series, map[string]*family) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		fams[n] = f
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].labelValue < out[j].labelValue
	})
	return out, fams
}
