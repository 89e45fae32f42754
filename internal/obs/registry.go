// Package obs is the stdlib-only observability layer of the repository: a
// Prometheus text-exposition metric registry (counters, gauges, histograms,
// with optional label dimensions), lightweight in-process request tracing
// (trace IDs and spans carried through context), and HTTP middleware that
// records per-route traffic. It exists so emsd can be operated like a real
// service — scraped, traced, and profiled — without importing anything
// beyond the standard library.
//
// The exposition format follows the Prometheus text format version 0.0.4:
// one HELP and TYPE comment per metric family, then one sample line per
// labeled series, histograms expanded into cumulative _bucket/_sum/_count
// series. Families render in registration order and series in first-use
// order, so the output is deterministic and goldenable.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind is the TYPE of a family in the exposition output.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and renders them in the Prometheus text
// format. The zero value is not usable; create with NewRegistry. All
// methods are safe for concurrent use, including rendering while metrics
// are being updated.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with a fixed kind and label schema.
type family struct {
	name, help string
	kind       metricKind
	labels     []string

	mu     sync.Mutex
	series map[string]series // canonical label-value key → series
	order  []string          // first-use order of keys, for stable output
	read   func() float64    // func-backed single series (labels must be empty)
}

// series is one labeled instance of a family.
type series interface {
	// write appends the sample line(s) for this series. name is the family
	// name, lbl the rendered {k="v",...} block (may be empty).
	write(w io.Writer, name, lbl string)
}

// validName matches the Prometheus metric and label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register creates a family, panicking on invalid or duplicate names —
// metric registration happens at construction time, so a bad name is a
// programming error, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q for metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]series),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// labelKey canonicalizes label values into the series map key and the
// rendered label block. values must match the family's label schema.
func (f *family) labelKey(values []string) (key, rendered string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if len(values) == 0 {
		return "", ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	s := b.String()
	return s, s
}

// escapeLabel escapes a label value per the text format: backslash, double
// quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// get returns the series for the label values, creating it with mk on first
// use.
func (f *family) get(values []string, mk func() series) series {
	key, _ := f.labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// formatFloat renders a sample value: shortest round-trip representation,
// with the Prometheus spellings of the special values.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders every family in the Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	cw := &countingWriter{w: w}
	for _, f := range fams {
		f.writeTo(cw)
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func (f *family) writeTo(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	if f.read != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.read()))
		return
	}
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	ss := make([]series, len(keys))
	for i, k := range keys {
		ss[i] = f.series[k]
	}
	f.mu.Unlock()
	for i, s := range ss {
		s.write(w, f.name, keys[i])
	}
}

// ServeHTTP renders the registry, so a Registry can be mounted directly at
// GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}

// ---- counters ----

// Counter is a monotonically increasing sample. Float-valued adds are
// supported (e.g. accumulated seconds); bits are maintained with CAS so
// concurrent Adds never lose increments.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are a programming error and
// panic.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("obs: counter decrease")
	}
	addFloat(&c.bits, d)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, name, lbl string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(c.Value()))
}

func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return f.get(nil, func() series { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label (use Counter)")
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() series { return &Counter{} }).(*Counter)
}

// ---- gauges ----

// Gauge is a sample that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (negative is fine).
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, lbl string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(g.Value()))
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil)
	return f.get(nil, func() series { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge read from fn at scrape time (e.g. live queue
// depth). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil)
	f.read = fn
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label (use Gauge)")
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels)}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() series { return &Gauge{} }).(*Gauge)
}

// ---- histograms ----

// DefBuckets are the default histogram buckets, identical to the Prometheus
// client defaults: tuned for request latencies in seconds from 5ms to 10s.
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// Histogram counts observations into cumulative buckets. Buckets are fixed
// at registration; observation is lock-free (one atomic increment into the
// owning bucket, one CAS add into the sum).
type Histogram struct {
	upper  []float64 // sorted upper bounds, excluding +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	// Drop a trailing +Inf: the implicit overflow bucket covers it.
	for len(up) > 0 && math.IsInf(up[len(up)-1], 1) {
		up = up[:len(up)-1]
	}
	return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	if i < len(h.upper) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	addFloat(&h.sum, v)
}

// snapshot returns cumulative bucket counts (including +Inf last), the
// total count and the sum. Concurrent Observes may land between the bucket
// loads; each line is individually consistent, which is all the text format
// promises.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.upper)+1)
	var running uint64
	for i := range h.upper {
		running += h.counts[i].Load()
		cum[i] = running
	}
	running += h.inf.Load()
	cum[len(h.upper)] = running
	return cum, running, math.Float64frombits(h.sum.Load())
}

func (h *Histogram) write(w io.Writer, name, lbl string) {
	cum, count, sum := h.snapshot()
	for i, up := range h.upper {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(lbl, "le", formatFloat(up)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(lbl, "le", "+Inf"), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, lbl, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, lbl, count)
}

// mergeLabel inserts one extra label pair into an already-rendered label
// block (used for the histogram "le" label).
func mergeLabel(lbl, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if lbl == "" {
		return "{" + extra + "}"
	}
	return lbl[:len(lbl)-1] + "," + extra + "}"
}

// Histogram registers an unlabeled histogram; nil buckets use DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets()
	}
	f := r.register(name, help, kindHistogram, nil)
	return f.get(nil, func() series { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with label dimensions; every series
// shares the bucket layout.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family; nil buckets use
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label (use Histogram)")
	}
	if buckets == nil {
		buckets = DefBuckets()
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels), buckets: append([]float64(nil), buckets...)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() series { return newHistogram(v.buckets) }).(*Histogram)
}
