// Package obs is the zero-dependency observability layer under the
// evaluation stack: atomic counters, gauges, latency histograms, and
// span timers behind a named registry with a stable JSON snapshot.
// A production scoring service lives or dies on runtime accounting —
// which rules cost what, where the flow spends its budget — so every
// layer (harness, litho kernel, OPC, technique evaluators) records
// into this package and the CLIs dump the snapshot next to their
// results.
//
// Cost model: the registry is disabled by default, and every
// instrument checks one shared atomic flag before touching its state,
// so an uninstrumented run pays a load-and-branch per recording site
// — near-zero against the grids and scans those sites sit next to.
// Hot paths cache instrument pointers in package variables; name
// lookups (a mutex and a map access) happen once at init or only
// while enabled.
package obs

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero
// Counter and the nil Counter are valid no-ops.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add increments the counter by n when the owning registry is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || c.on == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a last-write-wins float64 value (pool sizes, final RMS,
// worker counts).
type Gauge struct {
	on   *atomic.Bool
	bits atomic.Uint64
}

// Set records v when the owning registry is enabled.
func (g *Gauge) Set(v float64) {
	if g == nil || g.on == nil || !g.on.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram bucket upper bounds, sized for
// nanosecond latencies: 1µs to 100s in decade steps with a 10ms-1s
// midrange refinement (technique evaluators live there).
var DefBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10, 1e11}

// Histogram is a fixed-bucket distribution with atomic counts, sum,
// and max. Values above the last bound land in an overflow bucket.
type Histogram struct {
	on     *atomic.Bool
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits, CAS-maximized
}

// Observe records one value when the owning registry is enabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.on == nil || !h.on.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || h.on == nil || !h.on.Load() {
		return
	}
	h.Observe(float64(time.Since(t0)))
}

// Span is an in-flight timing started by Histogram.Start. The zero
// Span is a no-op, so a disabled registry costs no clock read.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// Start begins a span against the histogram; when the registry is
// disabled it returns the zero Span without reading the clock.
func (h *Histogram) Start() Span {
	if h == nil || h.on == nil || !h.on.Load() {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End records the span's elapsed nanoseconds.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.ObserveSince(s.t0)
}

// Registry is a named set of instruments sharing one enabled flag.
// All methods are safe for concurrent use.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty, disabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultReg = New()

// Default returns the process-wide registry every built-in
// instrumentation site records into.
func Default() *Registry { return defaultReg }

// SetEnabled turns recording on or off. Instruments handed out before
// the call observe the new state immediately.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{on: &r.enabled}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{on: &r.enabled}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (DefBuckets when nil). Bounds are fixed at creation;
// later calls with different bounds return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefBuckets
		}
		h = &Histogram{
			on:     &r.enabled,
			bounds: bounds,
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Bucket is one finite histogram bucket in a snapshot.
type Bucket struct {
	LE float64 `json:"le"` // upper bound (inclusive)
	N  int64   `json:"n"`
}

// HistSnapshot is the serializable state of one histogram. Over
// counts observations above the last bucket bound. P50/P95/P99 are
// bucket-interpolated quantile estimates (see quantileFromCounts);
// they are zero when the histogram is empty.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Mean    float64  `json:"mean"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50,omitempty"`
	P95     float64  `json:"p95,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"` // non-empty buckets only
	Over    int64    `json:"over,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument. Map keys
// serialize in sorted order (encoding/json), so two snapshots of the
// same state produce byte-identical JSON.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every instrument. Concurrent
// recording keeps going; the snapshot is per-instrument atomic.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.v.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistSnapshot{
				Count: h.n.Load(),
				Sum:   math.Float64frombits(h.sum.Load()),
				Max:   math.Float64frombits(h.max.Load()),
				Over:  h.counts[len(h.bounds)].Load(),
			}
			if hs.Count > 0 {
				hs.Mean = hs.Sum / float64(hs.Count)
			}
			counts := make([]int64, len(h.counts))
			for i := range h.counts {
				counts[i] = h.counts[i].Load()
			}
			for i, b := range h.bounds {
				if counts[i] > 0 {
					hs.Buckets = append(hs.Buckets, Bucket{LE: b, N: counts[i]})
				}
			}
			hs.P50 = quantileFromCounts(h.bounds, counts, hs.Max, 0.50)
			hs.P95 = quantileFromCounts(h.bounds, counts, hs.Max, 0.95)
			hs.P99 = quantileFromCounts(h.bounds, counts, hs.Max, 0.99)
			s.Histograms[name] = hs
		}
	}
	return s
}

// quantileFromCounts estimates the q-quantile of a fixed-bucket
// histogram by linear interpolation inside the bucket the target rank
// lands in (the Prometheus histogram_quantile scheme). The first
// bucket interpolates up from 0; the overflow bucket interpolates
// between the last bound and the observed max, so the estimate never
// exceeds a value that was actually recorded. counts has
// len(bounds)+1 entries, the last being the overflow bucket. Returns
// 0 for an empty histogram.
func quantileFromCounts(bounds []float64, counts []int64, max, q float64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) < rank {
			cum += n
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		// A populated bucket always holds a value in (lo, bound],
		// so max > lo and the interpolation span stays positive.
		hi := max
		if i < len(bounds) && bounds[i] < max {
			hi = bounds[i]
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(n)
	}
	return max
}

// SnapshotJSON renders the snapshot as indented JSON with a trailing
// newline. Keys are sorted, so output is stable for a given state.
func (r *Registry) SnapshotJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Package-level conveniences against the default registry. Hot paths
// should call these once and cache the returned instrument.

// C returns the named counter from the default registry.
func C(name string) *Counter { return defaultReg.Counter(name) }

// G returns the named gauge from the default registry.
func G(name string) *Gauge { return defaultReg.Gauge(name) }

// H returns the named histogram (DefBuckets) from the default
// registry.
func H(name string) *Histogram { return defaultReg.Histogram(name, nil) }

// Enabled reports whether the default registry is recording.
func Enabled() bool { return defaultReg.Enabled() }

// SetEnabled turns the default registry on or off.
func SetEnabled(on bool) { defaultReg.SetEnabled(on) }

// StartSpan starts a span against a named default-registry histogram,
// skipping the name lookup entirely while disabled.
func StartSpan(name string) Span {
	if !defaultReg.Enabled() {
		return Span{}
	}
	return defaultReg.Histogram(name, nil).Start()
}

// ObserveNS records a duration into a named default-registry
// histogram, skipping the lookup while disabled.
func ObserveNS(name string, d time.Duration) {
	if !defaultReg.Enabled() {
		return
	}
	defaultReg.Histogram(name, nil).Observe(float64(d))
}

// DumpDefault writes the default registry's JSON snapshot to the
// given path, with "-" meaning standard output. The CLI `-metrics`
// flags funnel through here.
func DumpDefault(path string) error {
	b, err := defaultReg.SnapshotJSON()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
