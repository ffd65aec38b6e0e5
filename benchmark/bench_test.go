package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"sync/atomic"
	"testing"

	"repro/internal/tiling"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is what the spread is judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.9, 3.1, 2.8, 3.3, 3.0, 2.7, 3.2, 3.05, 2.95, 3.15}, 2.875, 3.1625},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// A tail percentile is reported only where at least ten samples lie
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{9, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "nested", Start: 10, End: 60, Parent: 0},      // covers 50 of root
		{Name: "leaf", Start: 20, End: 30, Parent: 1},        // covers 10 of nested
		{Name: "overlap", Start: 50, End: 80, Parent: 0},     // overlaps nested by 10: adds 20
		{Name: "sticks out", Start: 90, End: 120, Parent: 0}, // only 10 of it lie inside root
		{Name: "leaf", Start: 40, End: 45, Parent: 1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 20 - 10, 50 - 10 - 5, 10, 30, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %q (span %d) = %d, want %d", spans[i].Name, i, self[i], want[i])
		}
	}
	if got := sumByName(spans, self, "leaf"); got != 15e-9 {
		t.Errorf("summed self time of leaf spans = %v s, want 15 ns", got)
	}
}

// A nil calibrator leaves times as measured; a real one reads something
// positive on both loops and blends them by memWeight.
func TestCalibrator(t *testing.T) {
	var none *calibrator
	if r := none.around(func() {}); r.slowdown() != 1 {
		t.Errorf("nil calibrator slowdown %v, want 1", r.slowdown())
	}
	c, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	r := c.around(func() { ran = true })
	if !ran || !(r.cpu > 0.2 && r.cpu < 50) || !(r.mem > 0.2 && r.mem < 50) {
		t.Errorf("reading %+v (ran %v): want both loops within 0.2x..50x of reference", r, ran)
	}
	if got, want := (reading{cpu: 1, mem: 3}).slowdown(), 1+2*memWeight; got != want {
		t.Errorf("blend of 1 and 3 = %v, want %v", got, want)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.in("x", rootSpan, func(int) { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the call")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json and the catalog in the code must say the same thing:
// every metric with its unit, direction and (end to end) bound, every
// workload with its reason.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		unique(w.Name)
		if d := workloadDefs[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Bound == nil || m.Name != d.name || m.Unit != d.unit || m.Better != d.better || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", m.Name, m.Unit, d.bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if bj.RunSeconds != runSeconds || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d, the code's default is %d, and it must lie in 1..60", bj.RunSeconds, runSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" || len(bj.Command) != 2 || bj.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
}

// toySizes is every workload at a size that runs in about a second.
var toySizes = sizes{drcRects: 6_000, lithoSlots: 1, fleetRects: 6_000, editRects: 6_000, editDefects: 2, editFixes: 2, cardSeeds: 1}

func toyConfig(tr *tracer) config {
	return config{seed: 3, workers: 2, sizes: toySizes, tr: tr}
}

// The smoke pass: all five workloads at toy sizes, end to end and
// traced, every catalogued metric emitted, every check passing.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			r := runEndToEnd(ctx, def, toyConfig(nil), 0)
			rec := summarize(r)
			if r.err != nil || !rec.Report.Correct || rec.Report.Failed != 0 {
				t.Fatalf("end to end: err %v, failures %v", r.err, rec.Failures)
			}
			if len(r.costs) != minPasses || len(r.setupS) != setupRepeats {
				t.Errorf("%d passes and %d set-ups, want %d and %d", len(r.costs), len(r.setupS), minPasses, setupRepeats)
			}
			for _, m := range endToEnd {
				s, ok := rec.Report.Metrics[m.name]
				if !ok || s.Unit != m.unit || !(s.Value > 0) || s.N == 0 {
					t.Errorf("end-to-end metric %s: %+v", m.name, s)
				}
			}
			if len(rec.Report.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics reported, want %d", len(rec.Report.Metrics), len(endToEnd))
			}

			trec, tr := runTraced(ctx, def, toyConfig(nil))
			if !trec.Report.Correct {
				t.Fatalf("traced: %v", trec.Failures)
			}
			for _, m := range perLayer {
				if s, ok := trec.Report.Metrics[m.name]; !ok || s.Unit != m.unit || math.IsNaN(s.Value) || s.Value < 0 {
					t.Errorf("per-layer metric %s: %+v", m.name, s)
				}
			}
			if len(trec.Report.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(trec.Report.Metrics), len(perLayer))
			}
			if c := trec.Report.Metrics["bench.span_coverage"].Value; c < 0.9 {
				t.Errorf("span coverage %.3f, want at least 0.9", c)
			}
			for _, s := range tr.spans {
				if s.End < s.Start || s.Workload != def.name {
					t.Fatalf("bad span %+v", s)
				}
			}
		})
	}
}

// failNth is a TileClient decorator that fails its n-th unit.
type failNth struct {
	next tiling.TileClient
	n    int64
	seen atomic.Int64
}

func (f *failNth) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	if f.seen.Add(1) == f.n {
		return nil, tiling.TileServed{}, errors.New("injected unit failure")
	}
	return f.next.EvalTile(ctx, req)
}

// A unit that fails must show as a non-zero failed share, an incorrect
// report, and a non-zero exit code.
func TestFailedUnitFailsTheRun(t *testing.T) {
	def := workloadDef{name: "chip_fleet", why: "one unit fails", new: func(c config) workload {
		return &chipFleet{chip: chip{cfg: c}, wrap: func(next tiling.TileClient) tiling.TileClient { return &failNth{next: next, n: 3} }}
	}}
	env := environment{Workers: 2}
	if code := runWorkloads(context.Background(), []workloadDef{def}, toyConfig(nil), env, 0, false, t.TempDir()); code == 0 {
		t.Error("exit code 0 although a unit failed")
	}
	rec := summarize(runEndToEnd(context.Background(), def, toyConfig(nil), 0))
	if rec.Report.Correct || rec.Report.Failed == 0 || rec.Report.Attempted < rec.Report.Failed || len(rec.Failures) == 0 {
		t.Errorf("report %+v, failures %v: want a counted failure", rec.Report, rec.Failures)
	}
}

func TestBadCommandLineExits2(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"stray"}} {
		if code := benchMain(args); code != 2 {
			t.Errorf("benchMain(%v) = %d, want 2", args, code)
		}
	}
}

// Every seed gives another variant of the one chip: same seed, same
// chip; another seed, a chip that shares no coordinates with it and
// still has the same size and the same findings.
func TestSeedSelectsVariantOfSameChip(t *testing.T) {
	ctx := context.Background()
	build := func(seed int64) *chipDRC {
		w := &chipDRC{chip: chip{cfg: config{seed: seed, workers: 2, sizes: toySizes}}}
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := w.pass(ctx, &meter{}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := build(1), build(1)
	if digest(a.last) != digest(b.last) {
		t.Error("the same seed gave two different chips")
	}
	for seed := int64(2); seed < 8; seed++ {
		c := build(seed)
		if digest(a.last) == digest(c.last) {
			t.Errorf("seeds 1 and %d gave the same chip", seed)
		}
		ab, cb := a.ex.BBox(), c.ex.BBox()
		if a.ex.Rects() != c.ex.Rects() || ab.Width() != cb.Width() || ab.Height() != cb.Height() {
			t.Errorf("seed %d: %d rects in %v, seed 1: %d rects in %v", seed, c.ex.Rects(), cb, a.ex.Rects(), ab)
		}
		if len(a.last.Violations) != len(c.last.Violations) || a.last.Stats.TileMisses != c.last.Stats.TileMisses {
			t.Errorf("seed %d: %d violations from %d computed tiles, seed 1: %d from %d", seed,
				len(c.last.Violations), c.last.Stats.TileMisses, len(a.last.Violations), a.last.Stats.TileMisses)
		}
		for _, ck := range defectChecks(c.info, c.last) {
			if !ck.ok {
				t.Errorf("seed %d: %s failed", seed, ck.name)
			}
		}
	}
}
