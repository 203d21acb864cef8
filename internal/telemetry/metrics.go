// Package telemetry is the observability kernel of the serving tier: a
// stdlib-only metrics registry exposed in Prometheus text exposition
// format, per-query traces with lifecycle spans, a structured slow-query
// log, and the uptime/build identity served by /healthz.
//
// The registry holds counters, gauges and fixed-bucket histograms, plain
// and labelled. Updates are atomic and allocation-free — Inc/Add/Set/
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
	"math"
	"net/http"
	"regexp"
	"sort"
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

// Handler serves the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
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

// escapeLabel escapes a label value for the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelPairs renders {a="x",b="y"}; extra (used for histogram le) appends
// one more pair. Empty sets render as the empty string.
func labelPairs(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
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
type Counter struct {
	name, help string
	v          atomic.Int64
}

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

func (c *Counter) expose(w io.Writer) error {
	if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
	return err
}

// NewCounter registers a counter on the registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, nil, c)
	return c
}

// Gauge is a float value that can go up and down.
type Gauge struct {
	name, help string
	v          atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

func (g *Gauge) expose(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, formatValue(g.Value()))
	return err
}

// NewGauge registers a gauge on the registry.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, nil, g)
	return g
}

// GaugeFunc is a gauge whose value is computed at scrape time.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *GaugeFunc) expose(w io.Writer) error {
	if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", g.name, formatValue(g.fn()))
	return err
}

// NewGaugeFunc registers a scrape-time gauge on the registry.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(name, nil, g)
	return g
}

// Histogram observes a distribution over fixed bucket bounds (upper
// bounds, ascending; an implicit +Inf bucket closes the set). Observe is
// atomic and allocation-free.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	sum        atomicFloat
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram %q bucket bounds not ascending", name))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
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

// writeSamples renders the _bucket/_sum/_count triplet under the given
// label set (empty for a plain histogram).
func (h *Histogram) writeSamples(w io.Writer, labelNames, labelValues []string) error {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		pairs := labelPairs(labelNames, labelValues, "le", formatValue(b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, pairs, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	pairs := labelPairs(labelNames, labelValues, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, pairs, cum); err != nil {
		return err
	}
	base := labelPairs(labelNames, labelValues, "", "")
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.name, base, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.name, base, cum)
	return err
}

func (h *Histogram) expose(w io.Writer) error {
	if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	return h.writeSamples(w, nil, nil)
}

// NewHistogram registers a histogram on the registry. A nil bounds slice
// uses DurationBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets()
	}
	h := newHistogram(name, help, bounds)
	r.register(name, nil, h)
	return h
}

// vec is the shared child management of the labelled families: children
// are keyed by their joined label values and created on first use.
type vec struct {
	name       string
	labelNames []string
	mu         sync.Mutex
	values     map[string][]string
}

func (v *vec) key(values []string) string {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", v.name, len(v.labelNames), len(values)))
	}
	return strings.Join(values, "\x00")
}

// sortedKeys returns the child keys sorted for deterministic exposition.
// Callers hold v.mu.
func (v *vec) sortedKeys() []string {
	keys := make([]string, 0, len(v.values))
	for k := range v.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	vec
	help     string
	children map[string]*Counter
}

// NewCounterVec registers a labelled counter family on the registry.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	cv := &CounterVec{
		vec:      vec{name: name, labelNames: labelNames, values: make(map[string][]string)},
		help:     help,
		children: make(map[string]*Counter),
	}
	r.register(name, labelNames, cv)
	return cv
}

// With returns the child counter for the label values, creating it on
// first use. Hoist the result out of loops: With locks and may allocate.
func (cv *CounterVec) With(values ...string) *Counter {
	key := cv.key(values)
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c := cv.children[key]
	if c == nil {
		c = &Counter{name: cv.name}
		cv.children[key] = c
		cv.values[key] = append([]string(nil), values...)
	}
	return c
}

func (cv *CounterVec) expose(w io.Writer) error {
	if err := writeHeader(w, cv.name, cv.help, "counter"); err != nil {
		return err
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	for _, k := range cv.sortedKeys() {
		pairs := labelPairs(cv.labelNames, cv.values[k], "", "")
		if _, err := fmt.Fprintf(w, "%s%s %d\n", cv.name, pairs, cv.children[k].Value()); err != nil {
			return err
		}
	}
	return nil
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct {
	vec
	help     string
	children map[string]*Gauge
}

// NewGaugeVec registers a labelled gauge family on the registry.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	gv := &GaugeVec{
		vec:      vec{name: name, labelNames: labelNames, values: make(map[string][]string)},
		help:     help,
		children: make(map[string]*Gauge),
	}
	r.register(name, labelNames, gv)
	return gv
}

// With returns the child gauge for the label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	key := gv.key(values)
	gv.mu.Lock()
	defer gv.mu.Unlock()
	g := gv.children[key]
	if g == nil {
		g = &Gauge{name: gv.name}
		gv.children[key] = g
		gv.values[key] = append([]string(nil), values...)
	}
	return g
}

func (gv *GaugeVec) expose(w io.Writer) error {
	if err := writeHeader(w, gv.name, gv.help, "gauge"); err != nil {
		return err
	}
	gv.mu.Lock()
	defer gv.mu.Unlock()
	for _, k := range gv.sortedKeys() {
		pairs := labelPairs(gv.labelNames, gv.values[k], "", "")
		if _, err := fmt.Fprintf(w, "%s%s %s\n", gv.name, pairs, formatValue(gv.children[k].Value())); err != nil {
			return err
		}
	}
	return nil
}

// HistogramVec is a histogram family partitioned by labels; every child
// shares the bucket bounds.
type HistogramVec struct {
	vec
	help     string
	bounds   []float64
	children map[string]*Histogram
}

// NewHistogramVec registers a labelled histogram family on the registry.
// A nil bounds slice uses DurationBuckets.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DurationBuckets()
	}
	hv := &HistogramVec{
		vec:      vec{name: name, labelNames: labelNames, values: make(map[string][]string)},
		help:     help,
		bounds:   bounds,
		children: make(map[string]*Histogram),
	}
	r.register(name, labelNames, hv)
	return hv
}

// With returns the child histogram for the label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	key := hv.key(values)
	hv.mu.Lock()
	defer hv.mu.Unlock()
	h := hv.children[key]
	if h == nil {
		h = newHistogram(hv.name, hv.help, hv.bounds)
		hv.children[key] = h
		hv.values[key] = append([]string(nil), values...)
	}
	return h
}

func (hv *HistogramVec) expose(w io.Writer) error {
	if err := writeHeader(w, hv.name, hv.help, "histogram"); err != nil {
		return err
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	for _, k := range hv.sortedKeys() {
		if err := hv.children[k].writeSamples(w, hv.labelNames, hv.values[k]); err != nil {
			return err
		}
	}
	return nil
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
