// Package obs is Privid's dependency-free observability substrate: a
// metrics registry (atomic counters, fixed-bucket latency histograms
// and scrape-time collectors, with Prometheus text exposition), a
// per-query span tracer, and a structured slow-query log.
//
// Design constraints, in order:
//
//   - Privacy: nothing in this package may carry a noised value, a raw
//     aggregate, or intermediate-table content. Instruments hold only
//     counts, durations, byte sizes and ε amounts that are already part
//     of the owner's audit log. The instrumentation call sites in
//     internal/core enforce this by construction — they observe stage
//     boundaries and cache outcomes, never release values.
//
//   - Hot-path cost: counters and histograms are single atomic
//     operations; every instrument method is safe on a nil receiver, so
//     an uninstrumented engine (core.Options.DisableMetrics) pays one
//     predictable nil check per call site and allocates nothing.
//
//   - No dependencies: stdlib only, so every layer (core, dp, store,
//     server) can import obs without cycles.
//
// Scrape-time state (queue depths, per-camera remaining ε, WAL sizes)
// is exported through collector callbacks (Registry.CollectFunc)
// evaluated at exposition time rather than instruments updated on the
// hot path. Collectors must be registered at construction time, never
// while holding a lock a collector itself takes, or a scrape could
// deadlock against registration.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus family type of a metric.
type MetricType int

// Metric family types (the subset the registry supports).
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// DurationBuckets is the default latency histogram layout: roughly
// exponential from 10 µs to 10 s, bracketing everything from one atomic
// cache hit to a fleet-scale video query.
var DurationBuckets = []float64{
	0.00001, 0.000025, 0.0001, 0.00025, 0.001, 0.0025,
	0.01, 0.025, 0.1, 0.25, 1, 2.5, 10,
}

// --- instruments ---

// Counter is a monotonically increasing float64. All methods are safe
// on a nil receiver (no-ops), so disabled instrumentation needs no
// branching at call sites.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v < 0 is ignored; counters never decrease).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Histogram is a fixed-bucket histogram. Buckets are upper bounds
// (inclusive, per Prometheus `le` semantics) in ascending order; an
// implicit +Inf bucket catches the rest. Observe is lock-free: one
// binary search plus two atomic updates. All methods are safe on a nil
// receiver.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    Counter         // reuses Counter's CAS float accumulation
	count  atomic.Uint64
}

// newHistogram returns a histogram over the given upper bounds (sorted
// copies are taken; an explicit trailing +Inf is dropped). Used
// directly only in tests; production instruments come from a Registry.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	for len(bs) > 0 && math.IsInf(bs[len(bs)-1], 1) {
		bs = bs[:len(bs)-1]
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le-inclusive)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// BucketCounts returns the non-cumulative per-bucket counts; the last
// entry is the +Inf bucket. Nil receivers return nil.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// --- vectors (labelled instruments) ---

// labelKey serializes label values into a map key. Label values never
// contain \x00 in this codebase (camera names, stage names), but escape
// anyway so distinct value tuples cannot collide.
func labelKey(vals []string) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(strconv.Quote(v))
		b.WriteByte(',')
	}
	return b.String()
}

// CounterVec is a family of Counters distinguished by label values.
// Safe on a nil receiver (With returns a nil *Counter, itself a no-op).
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (created on
// first use).
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.child(labelVals, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a family of Histograms distinguished by label values.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	h := v.fam.child(labelVals, func() any { return newHistogram(v.fam.buckets) })
	return h.(*Histogram)
}

// --- registry ---

// Emit is the callback a collector uses to report one sample at scrape
// time: the label values (matching the family's label keys) and the
// sample value.
type Emit func(labelVals []string, value float64)

// family is one metric family: a name, type, label schema, and either
// a set of live instruments or a scrape-time collector.
type family struct {
	name      string
	help      string
	typ       MetricType
	labelKeys []string
	buckets   []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
	order    []string // insertion order of children, for stable exposition

	collect func(Emit) // non-nil for collector families
}

type child struct {
	labelVals []string
	inst      any // *Counter or *Histogram
}

func (f *family) child(labelVals []string, mk func() any) any {
	if len(labelVals) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d",
			f.name, len(f.labelKeys), len(labelVals)))
	}
	key := labelKey(labelVals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.inst
	}
	c := &child{labelVals: append([]string(nil), labelVals...), inst: mk()}
	f.children[key] = c
	f.order = append(f.order, key)
	return c.inst
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. It is safe for concurrent use. The zero value is
// not usable; call NewRegistry. All registration methods are safe on a
// nil receiver and return nil instruments (which are themselves no-op),
// so a disabled deployment threads nil registries with no branching.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register returns the family for name, creating it on first use.
// Re-registering a name returns the existing family (so layers built at
// different times — engine, scheduler — can share one family, e.g. the
// per-stage latency histogram); the type must match.
func (r *Registry) register(name, help string, typ MetricType, labelKeys []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelKeys) != len(labelKeys) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelKeys: append([]string(nil), labelKeys...),
		buckets:   append([]float64(nil), buckets...),
		children:  map[string]*child{},
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, TypeCounter, labelKeys, nil)}
}

// Histogram registers (or finds) an unlabelled histogram with the
// given bucket upper bounds (nil uses DurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	f := r.register(name, help, TypeHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers (or finds) a labelled histogram family with
// the given bucket upper bounds (nil uses DurationBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	return &HistogramVec{fam: r.register(name, help, TypeHistogram, labelKeys, buckets)}
}

// CollectFunc registers a scrape-time collector: fn is invoked on every
// exposition and emits samples for the family (counter or gauge only).
// Use it for state that already lives behind its own lock — queue
// depths, cache counters, per-camera remaining ε — instead of mirroring
// that state into instruments on the hot path.
//
// fn runs while the registry holds its read lock, so it must not
// register metrics, and collectors must be registered only at
// construction time, never under a lock fn itself acquires.
func (r *Registry) CollectFunc(name, help string, typ MetricType, labelKeys []string, fn func(Emit)) {
	if r == nil {
		return
	}
	f := r.register(name, help, typ, labelKeys, nil)
	f.collect = fn
}

// --- exposition ---

// formatValue renders a sample value in Prometheus text format.
func formatValue(v float64) string {
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

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// writeLabels renders {k1="v1",k2="v2"}; extra appends one more pair
// (the histogram `le` label). Empty label sets render nothing.
func writeLabels(b *strings.Builder, keys, vals []string, extraKey, extraVal string) {
	if len(keys) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s="%s"`, k, escapeLabel(vals[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
}

// WriteTo renders every family in Prometheus text exposition format
// (content type `text/plain; version=0.0.4`). Families render in
// registration order; children in creation order — stable output makes
// scrapes diffable in tests. Safe on a nil receiver (writes nothing).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			f.collect(func(labelVals []string, v float64) {
				b.WriteString(f.name)
				writeLabels(&b, f.labelKeys, labelVals, "", "")
				b.WriteByte(' ')
				b.WriteString(formatValue(v))
				b.WriteByte('\n')
			})
			continue
		}
		f.mu.Lock()
		children := make([]*child, 0, len(f.order))
		for _, key := range f.order {
			children = append(children, f.children[key])
		}
		f.mu.Unlock()
		for _, c := range children {
			switch inst := c.inst.(type) {
			case *Counter:
				b.WriteString(f.name)
				writeLabels(&b, f.labelKeys, c.labelVals, "", "")
				fmt.Fprintf(&b, " %s\n", formatValue(inst.Value()))
			case *Histogram:
				cum := uint64(0)
				counts := inst.BucketCounts()
				for i, cnt := range counts {
					cum += cnt
					le := "+Inf"
					if i < len(inst.bounds) {
						le = formatValue(inst.bounds[i])
					}
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, f.labelKeys, c.labelVals, "le", le)
					fmt.Fprintf(&b, " %d\n", cum)
				}
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, f.labelKeys, c.labelVals, "", "")
				fmt.Fprintf(&b, " %s\n", formatValue(inst.Sum()))
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, f.labelKeys, c.labelVals, "", "")
				fmt.Fprintf(&b, " %d\n", cum)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
