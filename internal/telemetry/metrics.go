// Package telemetry is the observability kernel of the serving tier: a
// stdlib-only metrics registry exposed in Prometheus text exposition
// format, per-query traces with lifecycle spans, a structured slow-query
// log, and the uptime/build identity served by /healthz.
//
// The registry holds counters, gauges and fixed-bucket histograms, each a
// family of children keyed by label values; a plain metric is a family
// with no labels and one child. Updates are atomic and allocation-free — Inc/Add/Set/
// Observe never allocate — so instrumentation is safe on the query hot
// path; the one allocating operation, resolving a labelled child with
// With, is meant to run once per query (or be hoisted into a variable),
// never per series. Metric names are validated at registration: snake_case
// with a unit suffix (_total, _seconds, _bytes, _ratio), the invariant the
// metricname analyzer enforces statically.
//
// Exposition is deterministic: families appear in registration order,
// children sorted by label values, so scrapes diff cleanly in tests.
package telemetry

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the registration-time contract on metric names: snake_case
// starting with a letter, ending in a unit suffix. The metricname lint
// analyzer enforces the same pattern statically on every literal passed to
// the New* constructors.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(_total|_seconds|_bytes|_ratio)$`)

// labelRE constrains label names (values are free-form).
var labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ValidMetricName reports whether name satisfies the registry's naming
// contract. Exported so the metricname analyzer checks literals against
// the exact runtime rule.
func ValidMetricName(name string) bool { return nameRE.MatchString(name) }

// DurationBuckets returns the default histogram bounds for latencies in
// seconds: 100µs to 10s, roughly geometric.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// metric is one registered family: it renders its full exposition block
// (# HELP, # TYPE, samples).
type metric interface {
	expose(w io.Writer) error
}

// Registry is an ordered set of metric families with unique names.
type Registry struct {
	mu      sync.Mutex
	names   map[string]bool
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// defaultRegistry is the process-wide registry every package-level metric
// registers on; /metrics serves it.
var defaultRegistry = NewRegistry()

// register validates the name and adds the family. Registration happens in
// package var blocks, so violations are programmer errors and panic.
func (r *Registry) register(name string, labels []string, m metric) {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("telemetry: metric name %q is not snake_case with a unit suffix (_total, _seconds, _bytes, _ratio)", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("telemetry: label name %q of metric %q is not snake_case", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// Expose writes the registry in Prometheus text exposition format.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		if err := m.expose(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry; the mux mounting it checks the method.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Expose(w)
	})
}

// Handler serves the default registry.
func Handler() http.Handler { return defaultRegistry.Handler() }

// formatValue renders a sample value the way Prometheus does.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeLabel escapes a label value once, as the text format defines it:
// backslash, double quote and line feed.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// braced wraps a rendered label set in braces; the empty set renders as
// nothing.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// sample writes one `name{labels} value` line.
func sample(w io.Writer, name, labels, value string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), value)
	return err
}

// child is what a family holds per label set: a value type that writes its
// own samples under the family's name and the set's rendered labels.
type child interface {
	writeSamples(w io.Writer, name, labels string) error
}

// family is one registered metric family of any kind: its children keyed by
// label values, created on first use by With. A plain metric is a family
// with no label names whose one child With() creates at registration.
type family[C child] struct {
	name, help, typ string
	labelNames      []string
	newChild        func() C
	mu              sync.Mutex
	children        map[string]labelled[C]
}

// labelled is one child with its label set rendered for exposition.
type labelled[C child] struct {
	labels string
	c      C
}

func newFamily[C child](r *Registry, typ, name, help string, labelNames []string, newChild func() C) *family[C] {
	f := &family[C]{name: name, help: help, typ: typ, labelNames: labelNames, newChild: newChild, children: make(map[string]labelled[C])}
	r.register(name, labelNames, f)
	return f
}

// With returns the child for the label values, creating it on first use.
// Hoist the result out of loops: With locks and may allocate.
func (f *family[C]) With(values ...string) C {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		pairs := make([]string, len(values))
		for i, v := range values {
			pairs[i] = f.labelNames[i] + `="` + escapeLabel(v) + `"`
		}
		ch = labelled[C]{labels: strings.Join(pairs, ","), c: f.newChild()}
		f.children[key] = ch
	}
	return ch.c
}

// expose writes the family's # HELP/# TYPE header, then each child's
// samples, children sorted by label values.
func (f *family[C]) expose(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range slices.Sorted(maps.Keys(f.children)) {
		if err := f.children[k].c.writeSamples(w, f.name, f.children[k].labels); err != nil {
			return err
		}
	}
	return nil
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative; counters never go down).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeSamples(w io.Writer, name, labels string) error {
	return sample(w, name, labels, strconv.FormatInt(c.Value(), 10))
}

// Gauge is a float value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

func (g *Gauge) writeSamples(w io.Writer, name, labels string) error {
	return sample(w, name, labels, formatValue(g.Value()))
}

// GaugeFunc is a gauge whose value is computed at scrape time.
type GaugeFunc struct{ fn func() float64 }

func (g *GaugeFunc) writeSamples(w io.Writer, name, labels string) error {
	return sample(w, name, labels, formatValue(g.fn()))
}

// Histogram observes a distribution over fixed bucket bounds (upper
// bounds, ascending; an implicit +Inf bucket closes the set). Observe is
// atomic and allocation-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// writeSamples renders the _bucket/_sum/_count triplet, each bucket's le
// pair after the child's own labels.
func (h *Histogram) writeSamples(w io.Writer, name, labels string) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, le, cum); err != nil {
			return err
		}
	}
	if err := sample(w, name+"_sum", labels, formatValue(h.Sum())); err != nil {
		return err
	}
	return sample(w, name+"_count", labels, strconv.FormatInt(cum, 10))
}

// CounterVec is a counter family partitioned by labels; With resolves a child.
type CounterVec = family[*Counter]

// GaugeVec is a gauge family partitioned by labels; With resolves a child.
type GaugeVec = family[*Gauge]

// HistogramVec is a histogram family partitioned by labels, every child on
// the same bucket bounds; With resolves a child.
type HistogramVec = family[*Histogram]

// NewCounterVec registers a labelled counter family on the registry.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return newFamily(r, "counter", name, help, labelNames, func() *Counter { return new(Counter) })
}

// NewCounter registers a counter on the registry.
func (r *Registry) NewCounter(name, help string) *Counter { return r.NewCounterVec(name, help).With() }

// NewGaugeVec registers a labelled gauge family on the registry.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return newFamily(r, "gauge", name, help, labelNames, func() *Gauge { return new(Gauge) })
}

// NewGauge registers a gauge on the registry.
func (r *Registry) NewGauge(name, help string) *Gauge { return r.NewGaugeVec(name, help).With() }

// NewGaugeFunc registers a scrape-time gauge on the registry.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return newFamily(r, "gauge", name, help, nil, func() *GaugeFunc { return &GaugeFunc{fn: fn} }).With()
}

// NewHistogramVec registers a labelled histogram family on the registry.
// A nil bounds slice uses DurationBuckets.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DurationBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram %q bucket bounds not ascending", name))
		}
	}
	return newFamily(r, "histogram", name, help, labelNames, func() *Histogram {
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	})
}

// NewHistogram registers a histogram on the registry. A nil bounds slice
// uses DurationBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	return r.NewHistogramVec(name, help, bounds).With()
}

// The default-registry constructors: what almost every call site uses, and
// what the metricname analyzer watches.

// NewCounter registers a counter on the default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewCounterVec registers a labelled counter family on the default registry.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return defaultRegistry.NewCounterVec(name, help, labelNames...)
}

// NewGauge registers a gauge on the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewGaugeVec registers a labelled gauge family on the default registry.
func NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return defaultRegistry.NewGaugeVec(name, help, labelNames...)
}

// NewGaugeFunc registers a scrape-time gauge on the default registry.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return defaultRegistry.NewGaugeFunc(name, help, fn)
}

// NewHistogram registers a histogram on the default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// NewHistogramVec registers a labelled histogram family on the default
// registry.
func NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return defaultRegistry.NewHistogramVec(name, help, bounds, labelNames...)
}
