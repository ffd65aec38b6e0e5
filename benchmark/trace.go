package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Times are
// nanoseconds since the tracer started; Parent indexes the span that
// caused this one, -1 for the root.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how end-to-end runs execute the same
// workload code with tracing off.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	pass     int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: time.Since(t.t0).Nanoseconds(), End: -1,
		Parent: parent, Workload: t.workload, Pass: t.pass,
	})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// in runs fn inside a span and returns the span's duration.
func (t *tracer) in(name string, parent int, fn func(id int)) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn(-1)
		return time.Since(t0)
	}
	id := t.begin(name, parent)
	fn(id)
	return t.end(id)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. Children may overlap one another (two
// workers) and may stick out of the parent; only the union of their
// intervals clipped to the parent is subtracted.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			a, b := spans[k].Start, spans[k].End
			if a < edge {
				a = edge
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[i] -= covered
	}
	return self
}

// sumByName adds up durations (or self times, when self is non-nil) of
// the spans called name, in seconds.
func sumByName(spans []span, self []int64, name string) float64 {
	var ns int64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if self != nil {
			ns += self[i]
		} else {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// durationsMS lists the durations of the spans called name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
