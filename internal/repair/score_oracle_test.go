package repair

import (
	"context"
	"math/rand"
	"reflect"
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
func scoreOracle(res *tiling.Result, singles int, w Weights) Score {
	sc := Score{ByRule: make(map[string]float64), Singles: singles}
	for _, v := range res.Violations {
		wt := w.ViolationWeight(v.Rule)
		sc.Violations += wt
		sc.ByRule[v.Rule] += wt
		sc.Attr = append(sc.Attr, Attribution{Rule: v.Rule, Layer: v.Layer, Marker: v.Marker, Weight: wt})
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
			sc.Attr = append(sc.Attr, Attribution{Rule: rule, Layer: layer, Marker: h.Box, Weight: hw})
		}
	}
	sc.SingleVias = float64(singles) * w.SingleViaWeight()
	sc.Total = sc.Violations + sc.Hotspots + sc.SingleVias
	sort.Slice(sc.Attr, func(i, j int) bool {
		a, b := sc.Attr[i], sc.Attr[j]
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
	return sc
}

// The linear ScoreResult against the sorting one it replaced, on a
// generated chip's evaluation: as evaluated, shuffled (a caller-built
// result owes no order), truncated with Dropped > 0, and with hotspots
// on two layers.
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

	rng := rand.New(rand.NewSource(17))
	shuffled := *res
	shuffled.Violations = slices.Clone(res.Violations)
	rng.Shuffle(len(shuffled.Violations), func(i, j int) {
		shuffled.Violations[i], shuffled.Violations[j] = shuffled.Violations[j], shuffled.Violations[i]
	})

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
	}{{"evaluated", res}, {"shuffled", &shuffled}, {"dropped", capped}, {"hotspots", &spots}} {
		for wi, w := range []Weights{{}, custom} {
			before := slices.Clone(tc.res.Violations)
			got, want := ScoreResult(tc.res, 7, w), scoreOracle(tc.res, 7, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, weights %d: ScoreResult differs from the oracle (total %v vs %v, %d vs %d attributions)",
					tc.name, wi, got.Total, want.Total, len(got.Attr), len(want.Attr))
			}
			if !reflect.DeepEqual(before, tc.res.Violations) {
				t.Fatalf("%s: ScoreResult reordered the result it scored", tc.name)
			}
		}
	}
}

// Two attributions equal on (weight, rule, marker) but not on layer
// have one order — ascending layer — on every call; the sorting
// ScoreResult could return either.
func TestScoreResultOrderIsTotal(t *testing.T) {
	m := geom.R(0, 0, 10, 10)
	res := &tiling.Result{}
	for _, l := range []tech.Layer{tech.Metal3, tech.Metal1, tech.Metal2} {
		res.Violations = append(res.Violations, drc.Violation{Rule: "x.space.1", Layer: l, Marker: m})
	}
	for i := 0; i < 20; i++ {
		sc := ScoreResult(res, 0, Weights{})
		for k, want := range []tech.Layer{tech.Metal1, tech.Metal2, tech.Metal3} {
			if sc.Attr[k].Layer != want {
				t.Fatalf("call %d: Attr layers = %v %v %v, want ascending", i, sc.Attr[0].Layer, sc.Attr[1].Layer, sc.Attr[2].Layer)
			}
		}
	}
}
