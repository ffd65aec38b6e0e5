package repair

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// scoreOracle is ScoreResult as it stood before the linear rewrite: one
// attribution per finding in whatever order they arrive, then one sort
// of all of them. Its comparator stops at the marker and sort.Slice is
// unstable, so it is a reference only where no two attributions tie on
// (weight, rule, marker) with different layers.
func scoreOracle(res *tiling.Result, singles int, w Weights) (Score, []Attribution) {
	sc := Score{ByRule: make(map[string]float64), Singles: singles}
	var attr []Attribution
	for _, v := range res.Violations {
		wt := w.ViolationWeight(v.Rule)
		sc.Violations += wt
		sc.ByRule[v.Rule] += wt
		attr = append(attr, Attribution{Rule: v.Rule, Layer: v.Layer, Marker: v.Marker, Weight: wt})
	}
	// Violations dropped past Opts.MaxViolations still cost; they are
	// counted in ByRule totals at the rule's weight but cannot be
	// attributed to a rect.
	if res.Dropped > 0 {
		for rule, n := range res.ByRule {
			seen := 0
			for _, v := range res.Violations {
				if v.Rule == rule {
					seen++
				}
			}
			if extra := n - seen; extra > 0 {
				wt := w.ViolationWeight(rule) * float64(extra)
				sc.Violations += wt
				sc.ByRule[rule] += wt
			}
		}
	}
	hw := w.HotspotWeight()
	for layer, hs := range res.Hotspots {
		rule := "hotspot." + layer.String()
		for _, h := range hs {
			sc.Hotspots += hw
			sc.ByRule[rule] += hw
			attr = append(attr, Attribution{Rule: rule, Layer: layer, Marker: h.Box, Weight: hw})
		}
	}
	sc.SingleVias = float64(singles) * w.SingleViaWeight()
	sc.Total = sc.Violations + sc.Hotspots + sc.SingleVias
	sort.Slice(attr, func(i, j int) bool {
		a, b := attr[i], attr[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		am, bm := a.Marker, b.Marker
		if am.Y0 != bm.Y0 {
			return am.Y0 < bm.Y0
		}
		if am.X0 != bm.X0 {
			return am.X0 < bm.X0
		}
		if am.Y1 != bm.Y1 {
			return am.Y1 < bm.Y1
		}
		return am.X1 < bm.X1
	})
	return sc, attr
}

// sameTotals reports how got's totals differ from want's, bit for bit;
// "" when they do not.
func sameTotals(got, want Score) string {
	bits := math.Float64bits
	switch {
	case bits(got.Total) != bits(want.Total):
		return fmt.Sprintf("Total %v, want %v", got.Total, want.Total)
	case bits(got.Violations) != bits(want.Violations):
		return fmt.Sprintf("Violations %v, want %v", got.Violations, want.Violations)
	case bits(got.Hotspots) != bits(want.Hotspots):
		return fmt.Sprintf("Hotspots %v, want %v", got.Hotspots, want.Hotspots)
	case bits(got.SingleVias) != bits(want.SingleVias) || got.Singles != want.Singles:
		return fmt.Sprintf("SingleVias %v (%d), want %v (%d)", got.SingleVias, got.Singles, want.SingleVias, want.Singles)
	case len(got.ByRule) != len(want.ByRule):
		return fmt.Sprintf("%d ByRule entries, want %d", len(got.ByRule), len(want.ByRule))
	}
	for rule, v := range want.ByRule {
		if g, ok := got.ByRule[rule]; !ok || bits(g) != bits(v) {
			return fmt.Sprintf("ByRule[%s] %v, want %v", rule, g, v)
		}
	}
	return ""
}

// The linear ScoreResult and its worklist against the sorting one they
// replaced, on a generated chip's evaluation: as evaluated, truncated
// with Dropped > 0, and with hotspots on two layers. The worklist is asked for twice: the
// same list both times, and the scored result untouched.
func TestScoreResultMatchesOracle(t *testing.T) {
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3, MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	o := tiling.Opts{Tile: 9000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000}
	res, err := tiling.EvaluateChip(context.Background(), tt, l.Top, o)
	if err != nil {
		t.Fatalf("EvaluateChip: %v", err)
	}
	if len(res.Violations) < 100 || len(res.ByRule) < 5 {
		t.Fatalf("chip too clean to rank: %d violations, %d rules", len(res.Violations), len(res.ByRule))
	}
	o.MaxViolations = len(res.Violations) / 3
	capped, err := tiling.EvaluateChip(context.Background(), tt, l.Top, o)
	if err != nil {
		t.Fatalf("EvaluateChip(capped): %v", err)
	}
	if capped.Dropped == 0 {
		t.Fatal("capped result dropped nothing")
	}

	// Hotspots on two layers, in scan order (not marker order), with a
	// pair of boxes tied on Y0.
	spots := *res
	spots.Hotspots = map[tech.Layer][]litho.Hotspot{
		tech.Metal2: {{Box: geom.R(900, 500, 960, 560)}, {Box: geom.R(100, 500, 160, 560)}, {Box: geom.R(100, 20, 160, 80)}},
		tech.Metal1: {{Box: geom.R(5000, 5000, 5050, 5050)}, {Box: geom.R(10, 10, 70, 70)}},
	}

	custom := Weights{Rule: map[string]float64{"metal2.space.70": 10}, Density: 4, Hotspot: 3}
	for _, tc := range []struct {
		name string
		res  *tiling.Result
	}{{"evaluated", res}, {"dropped", capped}, {"hotspots", &spots}} {
		for wi, w := range []Weights{{}, custom} {
			before := slices.Clone(tc.res.Violations)
			got := ScoreResult(tc.res, 7, w)
			want, wantAttr := scoreOracle(tc.res, 7, w)
			if diff := sameTotals(got, want); diff != "" {
				t.Errorf("%s, weights %d: ScoreResult differs from the oracle: %s", tc.name, wi, diff)
			}
			attr := got.Attributions()
			if !reflect.DeepEqual(attr, wantAttr) {
				t.Errorf("%s, weights %d: worklist differs from the oracle's (%d vs %d attributions)",
					tc.name, wi, len(attr), len(wantAttr))
			}
			if again := got.Attributions(); !reflect.DeepEqual(again, attr) {
				t.Errorf("%s, weights %d: a second worklist differs from the first", tc.name, wi)
			}
			if !reflect.DeepEqual(before, tc.res.Violations) {
				t.Fatalf("%s: scoring or ranking reordered the result it read", tc.name)
			}
		}
	}
}

// Two attributions equal on (weight, rule, marker) but not on layer
// have one order — ascending layer, the evaluator's — on every call;
// the sorting ScoreResult could return either.
func TestScoreResultOrderIsTotal(t *testing.T) {
	m := geom.R(0, 0, 10, 10)
	res := &tiling.Result{}
	for _, l := range []tech.Layer{tech.Metal3, tech.Metal1, tech.Metal2} {
		res.Violations = append(res.Violations, drc.Violation{Rule: "x.space.1", Layer: l, Marker: m})
	}
	drc.SortViolations(res.Violations) // as every evaluator hands it over
	for i := 0; i < 20; i++ {
		sc := ScoreResult(res, 0, Weights{})
		want, _ := scoreOracle(res, 0, Weights{})
		if diff := sameTotals(sc, want); diff != "" {
			t.Fatalf("call %d: %s", i, diff)
		}
		attr := sc.Attributions()
		for k, want := range []tech.Layer{tech.Metal1, tech.Metal2, tech.Metal3} {
			if attr[k].Layer != want {
				t.Fatalf("call %d: worklist layers = %v %v %v, want ascending", i, attr[0].Layer, attr[1].Layer, attr[2].Layer)
			}
		}
	}
}

// Scoring costs the rules, not the findings: on an evaluator-ordered
// result of 24 000 violations over 24 rules, ScoreResult allocates at
// most 1 KiB per rule (the ByRule map and the rule blocks). Copying
// each violation into a worklist, as it once did, costs 64 bytes apiece.
func TestScoreResultAllocatesPerRule(t *testing.T) {
	const rules, perRule = 24, 1000
	res := &tiling.Result{ByRule: map[string]int{}}
	for r := 0; r < rules; r++ {
		rule := fmt.Sprintf("metal%d.space.%d", r%3+1, 100+r)
		res.ByRule[rule] = perRule
		for k := 0; k < perRule; k++ {
			x := int64(k) * 200
			res.Violations = append(res.Violations, drc.Violation{Rule: rule, Layer: tech.Metal1, Marker: geom.R(x, 0, x+50, 70)})
		}
	}
	drc.SortViolations(res.Violations)
	const calls = 10
	ScoreResult(res, 0, Weights{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ScoreResult(res, 0, Weights{})
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("ScoreResult of %d violations over %d rules: %d bytes a call", len(res.Violations), rules, perCall)
	if bound := uint64(rules) << 10; perCall > bound {
		t.Fatalf("ScoreResult of %d violations over %d rules allocates %d bytes a call, bound %d",
			len(res.Violations), rules, perCall, bound)
	}
}
