// Package obs is the observability core for the Light pipeline: atomic
// counters, gauges, and fixed-log2-bucket histograms behind a process-wide
// enable switch, a phase-scoped span tracer (record → encode → build →
// propagate → partition → solve → topo → replay), and a Prometheus
// text-format renderer served over HTTP.
//
// The package is zero-dependency (stdlib only) and race-clean: every metric
// is updated with sync/atomic operations, so instrumented hot paths — the
// recorder's optimistic read loop, the stripe-locked write path — stay safe
// under the race detector. When metrics are disabled (the default) every
// update method is a no-op after a single atomic flag load, so instrumented
// code pays essentially nothing; callers on the hottest paths additionally
// cache Enabled() at construction time (see light.NewRecorder) and skip the
// calls entirely.
//
// Metrics are registered at package init time into the Default registry and
// rendered with WritePrometheus; ServeMetrics exposes them at /metrics.
// Enabling is one-way per process phase: front ends call Enable before
// constructing recorders so the cached flags agree with the registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide metrics switch. Metric update methods are
// no-ops while it is false.
var enabled atomic.Bool

// Enable turns metric collection on. Call it before constructing the
// recorder/replayer so their cached fast-path flags observe the change.
func Enable() { enabled.Store(true) }

// Disable turns metric collection off (used by tests and benchmarks).
func Disable() { enabled.Store(false) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// metric is the renderable interface all metric kinds implement.
type metric interface {
	metricName() string
	write(w io.Writer) error
	reset()
}

// Registry holds a named set of metrics and renders them deterministically
// (sorted by name) in the Prometheus text exposition format.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	metrics []metric
}

// NewRegistry creates an empty registry. Most callers use Default.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// Default is the process-wide registry; package-level constructors register
// into it.
var Default = NewRegistry()

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.metricName()]; dup {
		panic("obs: duplicate metric name " + m.metricName())
	}
	r.byName[m.metricName()] = m
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in the Prometheus text
// format, sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].metricName() < ms[j].metricName() })
	for _, m := range ms {
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

// ResetAll zeroes every registered metric (test support).
func (r *Registry) ResetAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		m.reset()
	}
}

// WritePrometheus renders the Default registry.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewCounter registers a counter in r.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one; a no-op while metrics are disabled.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; a no-op while metrics are disabled.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) reset()             { c.v.Store(0) }

func (c *Counter) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
		c.name, c.help, c.name, c.name, c.v.Load())
	return err
}

// Gauge is a float64 metric holding the most recently set value.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewGauge registers a gauge in r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v; a no-op while metrics are disabled.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) reset()             { g.bits.Store(0) }

func (g *Gauge) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n",
		g.name, g.help, g.name, g.name, g.Value())
	return err
}

// histBuckets is the fixed bucket count of every histogram: bucket 0 holds
// the value 0 and bucket i (1 ≤ i ≤ 64) holds values whose bit length is i,
// i.e. the range [2^(i-1), 2^i - 1]. Fixed log2 buckets keep Observe
// allocation-free and mergeable without configuration.
const histBuckets = 65

// Histogram counts observations into fixed log2 buckets.
type Histogram struct {
	name, help string
	buckets    [histBuckets]atomic.Uint64
	count      atomic.Uint64
	sum        atomic.Int64
}

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string) *Histogram { return Default.NewHistogram(name, help) }

// NewHistogram registers a histogram in r.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	r.register(h)
	return h
}

// BucketIndex returns the log2 bucket an observation lands in: 0 for v ≤ 0,
// otherwise bits.Len64(v) (so 1→1, 2..3→2, 4..7→3, ...).
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns the inclusive upper bound of bucket i (2^i - 1; 0 for
// bucket 0).
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value; a no-op while metrics are disabled. Negative
// values are clamped into the zero bucket.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.buckets[BucketIndex(v)].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketCount returns the (non-cumulative) count of bucket i.
func (h *Histogram) BucketCount(i int) uint64 {
	if i < 0 || i >= histBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

func (h *Histogram) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
		return err
	}
	// Render cumulative counts up to the highest populated bucket, then +Inf.
	hi := 0
	for i := range h.buckets {
		if h.buckets[i].Load() > 0 {
			hi = i
		}
	}
	var cum uint64
	for i := 0; i <= hi; i++ {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.name, BucketBound(i), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		h.name, h.count.Load(), h.name, h.sum.Load(), h.name, h.count.Load())
	return err
}
