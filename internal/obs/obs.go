// Package obs is the engine's zero-dependency observability layer: a
// metrics registry (atomic counters, gauges and sharded power-of-two
// histograms, all safe for concurrent use) plus a lightweight span
// tracer (ring-buffered start/finish events with explicit parent IDs).
//
// The paper's whole argument is a cost model — C(V, T_i) = q_i + m_i,
// priced in page I/Os — so validating a view-set choice in practice
// means *measuring* the quantities the model predicts: probe counts,
// delta sizes, cache hit rates, per-phase latency. Every hot layer
// (optimizer search, delta pipeline, storage charging) reports into the
// package-level Default registry; the counters are cheap enough
// (uncontended atomic adds next to code paths that already build page-ID
// strings) that instrumentation is always on and can never change
// results, only report them.
//
// Handles are resolved once and cached by the caller:
//
//	var probes = obs.C("maintain.probe.hits")
//	probes.Inc()
//
// All handle methods are nil-receiver safe, so optional instrumentation
// needs no guards.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable value (stored as float64 bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a name-keyed collection of metrics. Metrics register
// lazily on first lookup; the same name always returns the same handle,
// so process-wide totals accumulate across independent subsystem
// instances (every Costing shares the cache counters, every Store the
// I/O counters).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
	}
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = f
}

// Histogram returns (registering if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every registered metric at one instant. Counters
// and histogram shards are read atomically (each value is individually
// consistent; the snapshot as a whole is not a global atomic cut, which
// is fine for monitoring).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	funcs := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, f := range r.gaugeFuncs {
		funcs[n] = f
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, f := range funcs {
		s.Gauges[n] = f()
	}
	if r == Default {
		pollGCNow() // feeds runtime.gc.pause.ns, read just below
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters))
	for n := range r.counters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default is the process-wide registry every instrumented subsystem
// reports into.
var Default = NewRegistry()

// Trace is the process-wide span tracer (ring of the most recent 4096
// finished spans).
var Trace = NewTracer(4096)

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }
