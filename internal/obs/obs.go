// Package obs is the zero-dependency observability core of the
// disclosure system: atomic counters, gauges and fixed-bucket latency
// histograms with a Prometheus text-format exposition (Expose).
//
// The package is built for the system's hot path. Every collector is a
// preallocated struct updated with atomic operations only — no maps, no
// locks, and no allocations on Inc/Add/Set/Observe — which is what lets
// the instrumented Submit pipeline keep the repository's 0 allocs/op CI
// gates. Registration (Registry.Counter and friends) is the slow path:
// it takes a mutex, is idempotent (the same name+labels returns the same
// collector), and is expected to happen once at construction time.
//
// Two registries matter to callers: Default, the process-wide registry
// every long-lived component registers into, and Disabled, a nil
// *Registry whose constructors return nil collectors. A nil collector's
// methods are no-ops, so "instrumentation off" is spelled by wiring
// Disabled through the same code path. What instrumentation costs is gated
// by TestSubmitObsZeroAlloc (no allocation added to a Submit).
package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Package-level collectors (the
// WAL metrics, the submit-pipeline metrics of a System built with
// NewSystem) register here, and every /metrics endpoint exposes it.
var Default = NewRegistry()

// Disabled is the nil registry: its constructor methods return nil
// collectors whose update methods are no-ops. Wiring Disabled instead
// of Default turns instrumentation off without a second code path.
var Disabled *Registry

// LatencyBuckets is the default histogram layout for request and stage
// latencies, in seconds: 25µs to 2.5s in a 1-2.5-5 progression. The
// floor sits below a warm-cache Submit (single-digit microseconds show
// up in the first bucket; the interesting spread begins at tens of
// microseconds) and the ceiling above any non-pathological fsync stall.
var LatencyBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5,
}

// DurationBuckets is the histogram layout for long-running maintenance
// operations (checkpoints, resyncs), in seconds: 1ms to 10s.
var DurationBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets is the histogram layout for small cardinalities such as
// group-commit window occupancy: powers of two from 1 to 256.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Counter is a monotone uint64 counter. The zero value is ready to use;
// a nil Counter is a no-op (the Disabled registry returns nil).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter. No-op on a nil Counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n to the counter. No-op on a nil Counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count, 0 on a nil Counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 gauge (a value that can go up and down), stored as
// atomic bits. A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. No-op on a nil Gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the gauge value (d may be negative). No-op on a nil
// Gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value, 0 on a nil Gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram: an upper-bound array
// chosen at registration, one atomic counter per bucket (plus the +Inf
// overflow) and an atomic float64 sum. The observation count is not
// stored separately — it is the sum of the buckets, which the exposition
// already computes for the cumulative `le` series — so Observe is
// allocation-free and two atomic updates: a linear scan over ~16 bounds,
// one bucket increment, one sum CAS. A nil Histogram is a no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. No-op on a nil Histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (the sum over all buckets),
// 0 on a nil Histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values, 0 on a nil Histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// series is one labeled member of a metric family. Exactly one of the
// collector fields is set, matching the family type.
type series struct {
	labels  string // rendered `k="v",...` without braces; "" if unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	gaugeFn func() float64
	countFn func() uint64
}

// family is a named metric with a type, help text, and one series per
// distinct label set.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	order  []string
	series map[string]*series
}

// Registry is a set of metric families. Registration methods are
// idempotent get-or-create keyed on name plus label set, so independent
// components (or several Systems in one process) can register the same
// family and share its collectors. All methods are safe for concurrent
// use; collector updates never take the registry lock. A nil Registry
// (Disabled) returns nil collectors from every constructor.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns pairs (k1, v1, k2, v2, ...) into the inner
// Prometheus label rendering `k1="v1",k2="v2"`. It panics on an odd
// number of elements — label sets are compile-time shapes, not data.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs %q", pairs))
	}
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getSeries returns the series for name+labels, creating family and
// series as needed. It panics if the existing family has a different
// type: one name, one type is a registry invariant the exposition
// format requires.
func (r *Registry) getSeries(name, help, typ string, labels []string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = fam
	} else if fam.typ != typ {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, fam.typ, typ))
	}
	key := renderLabels(labels)
	s := fam.series[key]
	if s == nil {
		s = &series{labels: key}
		fam.series[key] = s
		fam.order = append(fam.order, key)
	}
	return s
}

// Counter returns the counter for name with the given label pairs
// (k1, v1, k2, v2, ...), registering it on first use. Nil receiver
// (Disabled) returns nil.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, "counter", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for name with the given label pairs,
// registering it on first use. Nil receiver returns nil.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, "gauge", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram for name with the given bucket upper
// bounds (which must be sorted ascending; +Inf is implicit) and label
// pairs, registering it on first use. The bounds of the first
// registration win. Nil receiver returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, help, "histogram", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// GaugeFunc registers a gauge whose value is sampled by calling f at
// exposition time — for values a component already tracks (staleness,
// cache residency). Re-registering the same name+labels replaces the
// callback, so a restarted component's gauge follows the live instance.
// No-op on a nil Registry. f must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.getSeries(name, help, "gauge", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gaugeFn = f
}

// CounterFunc registers a counter sampled by calling f at exposition
// time — for monotone counts a component already maintains (applied
// ops, cache hits). Re-registering replaces the callback. No-op on a
// nil Registry. f must be safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, f func() uint64, labels ...string) {
	if r == nil {
		return
	}
	s := r.getSeries(name, help, "counter", labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.countFn = f
}
