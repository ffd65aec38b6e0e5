package dfm

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/tech"
)

func TestMetricGain(t *testing.T) {
	cases := []struct {
		m    Metric
		want float64
	}{
		{Metric{Before: 100, After: 110, HigherIsBetter: true}, 0.10},
		{Metric{Before: 100, After: 90, HigherIsBetter: true}, -0.10},
		{Metric{Before: 100, After: 90, HigherIsBetter: false}, 0.10},
		{Metric{Before: 0, After: 1, HigherIsBetter: true}, 1},
		// Nothing changed: +0 either way, never the -0 that negating a
		// lower-is-better difference yields.
		{Metric{Before: 0, After: 0, HigherIsBetter: false}, 0},
		{Metric{Before: 3, After: 3, HigherIsBetter: false}, 0},
		{Metric{Before: 3, After: 3, HigherIsBetter: true}, 0},
	}
	for i, c := range cases {
		got := c.m.Gain()
		if got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("case %d: Gain = %v, want %v", i, got, c.want)
		}
		if got == 0 && math.Signbit(got) {
			t.Errorf("case %d: Gain = -0, want +0", i)
		}
	}
}

// TestTablePrintsUnchangedAsZero: a technique whose baseline has nothing
// to fix (dpt-decomposition at seeds 9 and 15) reads "0.0%", not "-0.0%".
func TestTablePrintsUnchangedAsZero(t *testing.T) {
	sc := &Scorecard{Outcomes: []Outcome{{
		Technique: "dpt-decomposition",
		Metrics:   []Metric{{Name: "unprintable adjacencies", Unit: "count", Primary: true}},
	}}}
	if tbl := sc.Table(); !strings.Contains(tbl, "     0.0%") || strings.Contains(tbl, "-0.0%") {
		t.Errorf("unchanged metric does not print as 0.0%%:\n%s", tbl)
	}
}

// TestThresholdsCoverEveryTechnique: the verdict bars are one table, in
// scorecard order, and Detail prints the row each verdict was judged on.
func TestThresholdsCoverEveryTechnique(t *testing.T) {
	ths := Thresholds()
	names := Techniques()
	if len(ths) != len(names) {
		t.Fatalf("%d thresholds for %d techniques", len(ths), len(names))
	}
	for i, name := range names {
		if th := ths[i]; th.Technique != name || th.HitGain <= 0 || th.CostCap <= 0 || th.Why == "" {
			t.Errorf("thresholds[%d] = %+v, want a complete row for %s", i, th, name)
		}
	}
	o := Outcome{Technique: "dummy-fill", CostFrac: 0.284,
		Metrics: []Metric{{Name: "density sigma", Before: 0.09, After: 0.03, Primary: true}}}
	d, _ := techniqueNamed(o.Technique)
	o.Judge(d.HitGain, d.CostCap)
	det := (&Scorecard{Outcomes: []Outcome{o}}).Detail()
	if o.Verdict != Hit || !strings.Contains(det, "HIT at gain >= 10% and cost <= 40%") {
		t.Errorf("dummy-fill at 28.4%% cost: verdict %v, detail:\n%s", o.Verdict, det)
	}
}

func TestJudgeThresholds(t *testing.T) {
	mk := func(before, after, cost float64) Outcome {
		return Outcome{
			Metrics:  []Metric{{Before: before, After: after, HigherIsBetter: true, Primary: true}},
			CostFrac: cost,
		}
	}
	o := mk(1.0, 1.10, 0.05)
	o.Judge(0.05, 0.10)
	if o.Verdict != Hit {
		t.Fatalf("strong gain at low cost = %v, want HIT", o.Verdict)
	}
	o = mk(1.0, 1.10, 0.5)
	o.Judge(0.05, 0.10)
	if o.Verdict != Marginal {
		t.Fatalf("strong gain at high cost = %v, want MARGINAL", o.Verdict)
	}
	o = mk(1.0, 1.01, 0.0)
	o.Judge(0.05, 0.10)
	if o.Verdict != Marginal {
		t.Fatalf("weak gain = %v, want MARGINAL", o.Verdict)
	}
	o = mk(1.0, 0.9, 0.0)
	o.Judge(0.05, 0.10)
	if o.Verdict != Hype {
		t.Fatalf("regression = %v, want HYPE", o.Verdict)
	}
	bad := Outcome{Err: errFake}
	bad.Judge(0.05, 0.10)
	if bad.Verdict != Hype {
		t.Fatalf("error outcome = %v, want HYPE", bad.Verdict)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestScorecardRendering(t *testing.T) {
	sc := &Scorecard{}
	sc.Add(Outcome{
		Technique: "demo",
		Metrics: []Metric{
			{Name: "yield", Before: 0.90, After: 0.95, Unit: "frac", HigherIsBetter: true, Primary: true},
		},
		CostFrac: 0.02,
		Verdict:  Hit,
		Runtime:  10 * time.Millisecond,
	})
	sc.Add(Outcome{Technique: "broken", Err: errFake})
	tbl := sc.Table()
	if !strings.Contains(tbl, "demo") || !strings.Contains(tbl, "HIT") {
		t.Fatalf("table missing content:\n%s", tbl)
	}
	if !strings.Contains(tbl, "ERROR") {
		t.Fatalf("table missing error row:\n%s", tbl)
	}
	det := sc.Detail()
	if !strings.Contains(det, "yield") {
		t.Fatalf("detail missing metric:\n%s", det)
	}
	hit, marg, hype := sc.Hits()
	if hit != 1 || marg != 0 || hype != 1 {
		t.Fatalf("Hits = %d/%d/%d", hit, marg, hype)
	}
}

// evaluated runs the named technique through the driver at seed, on
// the block shape opts where it draws a block, and fails the test on
// an evaluation error.
func evaluated(t *testing.T, name string, seed int64, opts layout.BlockOpts) Outcome {
	t.Helper()
	d, ok := techniqueNamed(name)
	if !ok {
		t.Fatalf("no technique %q", name)
	}
	tt := tech.N45()
	o := d.evaluate(context.Background(), tt, newWorkload(tt, seed, opts))
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	return o
}

func TestEvalRedundantVia(t *testing.T) {
	o := evaluated(t, "redundant-via", 4, layout.BlockOpts{Rows: 2, RowWidth: 8000, Nets: 10, MaxFan: 3})
	p, _ := o.Primary()
	if p.After <= p.Before {
		t.Fatalf("full-chip via yield did not improve: %+v", p)
	}
	if o.Verdict == Hype {
		t.Fatalf("redundant via judged hype: %s", (&Scorecard{Outcomes: []Outcome{o}}).Detail())
	}
}

func TestEvalDummyFill(t *testing.T) {
	o := evaluated(t, "dummy-fill", 4, layout.BlockOpts{Rows: 2, RowWidth: 8000, Nets: 10, MaxFan: 3})
	p, _ := o.Primary()
	if p.Gain() <= 0 {
		t.Fatalf("fill did not improve density sigma: %+v", p)
	}
	if o.CostFrac <= 0 {
		t.Fatalf("fill cost not accounted")
	}
}

func TestEvalOPCAccuracy(t *testing.T) {
	o := evaluated(t, "model-opc", 0, DefaultBlock())
	p, _ := o.Primary()
	if p.After >= p.Before {
		t.Fatalf("model OPC did not reduce RMS EPE: %+v", p)
	}
	// Rule-based sits between none and model.
	var rule Metric
	for _, m := range o.Metrics {
		if strings.Contains(m.Name, "rule") {
			rule = m
		}
	}
	if !(rule.After < rule.Before) {
		t.Fatalf("rule OPC did not improve: %+v", rule)
	}
	if o.Verdict != Hit {
		t.Fatalf("model OPC should be a clear hit, got %v", o.Verdict)
	}
}

func TestEvalSRAF(t *testing.T) {
	o := evaluated(t, "sraf", 0, DefaultBlock())
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	// Primary is through-focus CD stability (lower is better).
	p, _ := o.Primary()
	if p.Gain() <= 0 {
		t.Fatalf("SRAF did not stabilize CD: %+v", p)
	}
	// DOF must not get worse.
	for _, m := range o.Metrics {
		if m.Name == "depth of focus" && m.After < m.Before {
			t.Fatalf("SRAF shrank DOF: %+v", m)
		}
	}
}

func TestEvalDRCPlusCapturesMoreThanDRC(t *testing.T) {
	o := evaluated(t, "drc-plus", 11, DefaultBlock())
	p, _ := o.Primary()
	if p.After <= p.Before {
		t.Fatalf("DRC+ capture (%v) not above plain DRC (%v)", p.After, p.Before)
	}
	if p.After <= 0 {
		t.Fatalf("pattern library caught nothing")
	}
}

// TestExtractGateLengths also holds the extraction to one grid a call:
// the four cells render through one handle, the largest window first,
// with OPC at nominal and without it off nominal alike.
func TestExtractGateLengths(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	newGrids := func() int64 { return obs.Default().Snapshot().Counters["litho.raster.grid.new"] }
	tt := tech.N45()
	before := newGrids()
	gl, err := ExtractGateLengths(context.Background(), tt, litho.Nominal, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := newGrids() - before; n != 1 {
		t.Errorf("extraction with OPC took %d new grids, want 1", n)
	}
	before = newGrids()
	if _, err := ExtractGateLengths(context.Background(), tt, litho.Condition{Defocus: 60, Dose: 0.95}, false); err != nil {
		t.Fatal(err)
	}
	if n := newGrids() - before; n != 1 {
		t.Errorf("extraction off nominal took %d new grids, want 1", n)
	}
	for _, gt := range []circuit.GateType{circuit.Inv, circuit.Nand2, circuit.Nor2, circuit.Buf} {
		d, ok := gl.Delay[gt]
		if !ok {
			t.Fatalf("%v missing from extraction", gt)
		}
		// Post-OPC printed lengths land near drawn (within 25%).
		if d < 34 || d > 56 {
			t.Fatalf("%v delay Leq = %v, implausible", gt, d)
		}
		k := gl.Leak[gt]
		if k <= 0 || k > d+5 {
			t.Fatalf("%v leak Leq = %v vs delay %v", gt, k, d)
		}
	}
}

func TestEvalLithoTiming(t *testing.T) {
	o := evaluated(t, "litho-aware-timing", 9, DefaultBlock())
	p, _ := o.Primary()
	if p.Before <= 0 {
		t.Fatalf("no slack error measured: %+v", p)
	}
	if p.Before > 0.6 {
		t.Fatalf("slack error implausibly large: %+v", p)
	}
}

func TestEvalRestrictedRules(t *testing.T) {
	o := evaluated(t, "restricted-rules", 0, DefaultBlock())
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	// Restricted rules must cost area.
	if o.CostFrac <= 0 {
		t.Fatalf("restricted rules should cost area: %v", o.CostFrac)
	}
	p, _ := o.Primary()
	if p.After > p.Before {
		t.Fatalf("restricted rules worsened printability: %+v", p)
	}
}

func TestRunAllScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("full scorecard is slow")
	}
	tt := tech.N45()
	sc := RunAllConfig(context.Background(), tt, 11, DefaultConfig())
	if len(sc.Outcomes) != 8 {
		t.Fatalf("technique count = %d", len(sc.Outcomes))
	}
	for _, o := range sc.Outcomes {
		if o.Err != nil {
			t.Errorf("%s failed: %v", o.Technique, o.Err)
		}
	}
	hit, marg, hype := sc.Hits()
	if hit == 0 {
		t.Fatalf("no technique judged a hit (hit=%d marg=%d hype=%d):\n%s",
			hit, marg, hype, sc.Detail())
	}
}

func TestScorecardJSON(t *testing.T) {
	sc := &Scorecard{}
	sc.Add(Outcome{
		Technique: "demo",
		Metrics:   []Metric{{Name: "m", Before: 1, After: 2, Unit: "x", HigherIsBetter: true, Primary: true}},
		Verdict:   Hit,
	})
	sc.Add(Outcome{Technique: "broken", Err: errFake})
	b, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"technique": "demo"`, `"verdict": "HIT"`, `"error": "fake"`, `"Before": 1`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
}
