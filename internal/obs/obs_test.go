package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	c.Add(5)
	c.Inc()
	g.Set(3.5)
	h.Observe(100)
	h.Start().End()
	if c.v.Load() != 0 || g.Value() != 0 {
		t.Fatalf("disabled registry recorded: counter=%d gauge=%v", c.v.Load(), g.Value())
	}
	s := r.Snapshot()
	if s.Counters["c"] != 0 || s.Histograms["h"].Count != 0 {
		t.Fatalf("disabled registry snapshot non-zero: %+v", s)
	}
}

func TestEnableIsObservedByExistingInstruments(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	r.SetEnabled(true)
	c.Inc()
	c.Add(2)
	r.SetEnabled(false)
	c.Inc()
	if c.v.Load() != 3 {
		t.Fatalf("counter = %d, want 3 (only enabled-window increments)", c.v.Load())
	}
}

func TestCounterGetOrCreateIsStable(t *testing.T) {
	r := New()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name returned distinct counters")
	}
	if r.Histogram("h", nil) != r.Histogram("h", []float64{1}) {
		t.Fatal("histogram re-registration replaced the original")
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("lat", []float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 10, 50, 500, 5000, 50000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 55566 {
		t.Fatalf("sum = %v, want 55566", s.Sum)
	}
	if s.Max != 50000 {
		t.Fatalf("max = %v, want 50000", s.Max)
	}
	// Buckets: le=10 gets {1,5,10}, le=100 gets {50}, le=1000 gets
	// {500}, overflow gets {5000, 50000}.
	want := map[float64]int64{10: 3, 100: 1, 1000: 1}
	for _, b := range s.Buckets {
		if want[b.LE] != b.N {
			t.Errorf("bucket le=%v n=%d, want %d", b.LE, b.N, want[b.LE])
		}
		delete(want, b.LE)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
	if s.Over != 2 {
		t.Errorf("overflow = %d, want 2", s.Over)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("q", []float64{10, 100, 1000})
	// 100 values uniform in (0,100]: 1..100. Ranks interpolate inside
	// the le=10 and le=100 buckets.
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	s := r.Snapshot().Histograms["q"]
	// p50: rank 50 lands in the le=100 bucket (10 below it), lo=10,
	// hi=100, (50-10)/90 of the span: 10 + 90*40/90 = 50.
	if s.P50 != 50 {
		t.Errorf("p50 = %v, want 50", s.P50)
	}
	if s.P95 != 95 {
		t.Errorf("p95 = %v, want 95", s.P95)
	}
	if s.P99 != 99 {
		t.Errorf("p99 = %v, want 99", s.P99)
	}
}

func TestHistogramQuantileOverflowClampsToMax(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("q", []float64{10})
	h.Observe(5)
	h.Observe(20000) // overflow bucket
	h.Observe(40000) // overflow bucket
	s := r.Snapshot().Histograms["q"]
	// p99 rank 2.97 lands in the overflow bucket: interpolates between
	// the last bound (10) and the observed max (40000) — never past a
	// value that was actually recorded.
	if s.P99 > s.Max {
		t.Errorf("p99 = %v exceeds max %v", s.P99, s.Max)
	}
	if s.P99 <= 10 {
		t.Errorf("p99 = %v, want inside the overflow span (10, %v]", s.P99, s.Max)
	}
	// All mass below the first bound: quantiles stay within (0, 10].
	r2 := New()
	r2.SetEnabled(true)
	h2 := r2.Histogram("q2", []float64{10, 100})
	h2.Observe(4)
	h2.Observe(4)
	s2 := r2.Snapshot().Histograms["q2"]
	if s2.P99 > s2.Max {
		t.Errorf("single-bucket p99 = %v exceeds max %v", s2.P99, s2.Max)
	}
	if s2.P50 <= 0 || s2.P50 > 4 {
		t.Errorf("single-bucket p50 = %v, want in (0, 4]", s2.P50)
	}
}

func TestHistogramQuantilesEmpty(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.Histogram("q", nil)
	s := r.Snapshot().Histograms["q"]
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Errorf("empty histogram quantiles = %v/%v/%v, want zeros", s.P50, s.P95, s.P99)
	}
}

func TestSpanRecordsElapsed(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("span", nil)
	sp := h.Start()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	s := r.Snapshot().Histograms["span"]
	if s.Count != 1 {
		t.Fatalf("span count = %d, want 1", s.Count)
	}
	if s.Sum < float64(1*time.Millisecond) || s.Sum > float64(5*time.Second) {
		t.Fatalf("span recorded implausible duration %v ns", s.Sum)
	}
}

func TestSnapshotJSONStableAndValid(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g.val").Set(1.25)
	r.Histogram("h.ns", nil).Observe(5e6)
	j1, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON unstable:\n%s\nvs\n%s", j1, j2)
	}
	var s Snapshot
	if err := json.Unmarshal(j1, &s); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, j1)
	}
	if s.Counters["a.count"] != 1 || s.Counters["b.count"] != 2 {
		t.Fatalf("counters lost in round-trip: %+v", s.Counters)
	}
	if s.Gauges["g.val"] != 1.25 {
		t.Fatalf("gauge lost in round-trip: %+v", s.Gauges)
	}
	if s.Histograms["h.ns"].Count != 1 {
		t.Fatalf("histogram lost in round-trip: %+v", s.Histograms)
	}
}

// TestConcurrentRecording hammers one counter and one histogram from
// many goroutines (run under -race by make tier1) and checks totals.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	c := r.Counter("c")
	h := r.Histogram("h", []float64{10, 1000})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if c.v.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.v.Load(), workers*per)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*per)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal+s.Over != s.Count {
		t.Fatalf("bucket totals %d + over %d != count %d", bucketTotal, s.Over, s.Count)
	}
	if s.Max != 99 {
		t.Fatalf("max = %v, want 99", s.Max)
	}
}

// The disabled path is the one every production call site pays; it
// must stay a load-and-branch.
func BenchmarkCounterDisabled(b *testing.B) {
	r := New()
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	r := New()
	r.SetEnabled(true)
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("h", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	r := New()
	h := r.Histogram("h", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Start().End()
	}
}
