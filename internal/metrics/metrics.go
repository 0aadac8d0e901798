// Package metrics is the always-on counterpart to internal/obs: where
// obs records *when* things happened (spans on a virtual timeline),
// metrics keeps cheap aggregate instruments — counters, gauges, and
// fixed-bucket histograms — that can be scraped live over HTTP in
// Prometheus text format or dumped once as JSON, and compared across
// runs by the bench-regression gate.
//
// The package is dependency-free (standard library plus
// internal/stats for quantile math) and follows the same disabled-path
// contract as obs.Tracer: a nil *Registry hands out nil instruments,
// and every instrument method is nil-safe and allocation-free, so
// instrumentation stays unconditional in hot loops. Hot paths resolve
// their instrument handles once (per collective, per file system, per
// world) and the per-round cost is a single atomic update — or nothing
// at all when metrics are off.
//
// Instruments are identified by name plus an ordered list of label
// pairs ("op", "write"). Looking the same identity up again returns
// the same instrument, so layers do not need to coordinate
// registration.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates instrument families.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// fvalue is a float64 cell updated with a CAS loop; Prometheus sample
// values are floats, and byte counts stay exact below 2^53.
type fvalue struct {
	bits atomic.Uint64
}

func (v *fvalue) add(d float64) {
	for {
		old := v.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (v *fvalue) set(x float64) { v.bits.Store(math.Float64bits(x)) }

func (v *fvalue) setMax(x float64) {
	for {
		old := v.bits.Load()
		if math.Float64frombits(old) >= x {
			return
		}
		if v.bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

func (v *fvalue) get() float64 { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing value. A nil *Counter (from a
// nil Registry) ignores every update without allocating.
type Counter struct {
	v fvalue
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored (counters
// never decrease).
func (c *Counter) Add(d float64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.add(d)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.get()
}

// Gauge is a value that can go up and down. Nil-safe like Counter.
type Gauge struct {
	v fvalue
}

// Set stores the value.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.v.set(x)
}

// Add adjusts the value by d (negative d decreases it).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v.add(d)
}

// SetMax raises the gauge to x if x is larger — the high-water-mark
// update the memory ledger uses.
func (g *Gauge) SetMax(x float64) {
	if g == nil {
		return
	}
	g.v.setMax(x)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.get()
}

// Histogram counts observations into fixed buckets. Bounds are the
// inclusive upper edges of each bucket, ascending; an implicit +Inf
// bucket catches the rest (out-of-range observations clamp into the
// edge buckets exactly like stats.NewHistogram). Sum and Count make
// rates and means recoverable.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    fvalue
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(x)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.get()
}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous — the shape used for byte-size histograms.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: invalid exponential buckets")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefBytesBuckets spans 64 KiB to 4 GiB by powers of four — wide
// enough for request batches and shuffle rounds alike.
func DefBytesBuckets() []float64 { return ExponentialBuckets(64<<10, 4, 9) }

// DefSecondsBuckets spans 100 µs to ~27 min by powers of four.
func DefSecondsBuckets() []float64 { return ExponentialBuckets(1e-4, 4, 12) }

// child binds an instrument to its rendered label set.
type child struct {
	key    string   // rendered {k="v",...} (empty when unlabelled)
	labels []string // alternating key, value
	inst   any
}

// family is all children of one metric name.
type family struct {
	name, help string
	kind       Kind
	bounds     []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// Registry owns metric families. The zero of the API is a nil
// *Registry: every method returns a nil instrument whose updates are
// no-ops, so layers attach instrumentation unconditionally.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an enabled registry.
func New() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// labelKey renders alternating (name, value) pairs as the child key.
// Values are escaped for the Prometheus text format.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", labels))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// lookup finds or creates the family and child for one identity.
func (r *Registry) lookup(name, help string, kind Kind, bounds []float64, labels []string, make func() any) any {
	r.mu.Lock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, children: map[string]*child{}}
		r.fams[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := f.children[key]
	if ch == nil {
		ch = &child{key: key, labels: append([]string(nil), labels...), inst: make()}
		f.children[key] = ch
	}
	return ch.inst
}

// Counter returns the counter for name and label pairs, creating it on
// first use. labels alternate key and value ("op", "write"). Nil-safe:
// a nil registry returns a nil counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, nil, labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge for name and label pairs. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, nil, labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram for name and label pairs, with the
// given bucket bounds (ascending upper edges; only the first caller's
// bounds are used). Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s with no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not ascending", name))
		}
	}
	return r.lookup(name, help, KindHistogram, bounds, labels, func() any {
		return &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Int64, len(bounds)+1)}
	}).(*Histogram)
}

// families returns a name-sorted snapshot of the registered families
// and their key-sorted children.
func (r *Registry) families() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedChildren returns a family's children ordered by label key.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
