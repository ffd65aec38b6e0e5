package repair

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/drc"
	"repro/internal/dvia"
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
func scoreOracle(res *tiling.Result, singles int) (Score, []Attribution) {
	sc := Score{ByRule: make(map[string]float64), Singles: singles}
	var attr []Attribution
	for _, v := range res.Violations {
		wt := violationWeight(v.Rule)
		sc.Violations += wt
		sc.ByRule[v.Rule] += wt
		attr = append(attr, Attribution{Rule: v.Rule, Layer: v.Layer, Marker: v.Marker, Weight: wt})
	}
	hw := float64(hotspotWeight)
	for layer, hs := range res.Hotspots {
		rule := "hotspot." + layer.String()
		for _, h := range hs {
			sc.Hotspots += hw
			sc.ByRule[rule] += hw
			attr = append(attr, Attribution{Rule: rule, Layer: layer, Marker: h.Box, Weight: hw})
		}
	}
	sc.SingleVias = float64(singles) * singleViaWeight
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
// replaced, on a generated chip's evaluation: as evaluated, and with
// hotspots on two layers. The worklist is asked for twice: the same
// list both times, and the scored result untouched.
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
	// Hotspots on two layers, in scan order (not marker order), with a
	// pair of boxes tied on Y0.
	spots := *res
	spots.Hotspots = map[tech.Layer][]litho.Hotspot{
		tech.Metal2: {{Box: geom.R(900, 500, 960, 560)}, {Box: geom.R(100, 500, 160, 560)}, {Box: geom.R(100, 20, 160, 80)}},
		tech.Metal1: {{Box: geom.R(5000, 5000, 5050, 5050)}, {Box: geom.R(10, 10, 70, 70)}},
	}

	for _, tc := range []struct {
		name string
		res  *tiling.Result
	}{{"evaluated", res}, {"hotspots", &spots}} {
		before := slices.Clone(tc.res.Violations)
		got := ScoreResult(tc.res, 7, Weights{})
		want, wantAttr := scoreOracle(tc.res, 7)
		if diff := sameTotals(got, want); diff != "" {
			t.Errorf("%s: ScoreResult differs from the oracle: %s", tc.name, diff)
		}
		attr := attributions(got)
		if !reflect.DeepEqual(attr, wantAttr) {
			t.Errorf("%s: worklist differs from the oracle's (%d vs %d attributions)",
				tc.name, len(attr), len(wantAttr))
		}
		if again := attributions(got); !reflect.DeepEqual(again, attr) {
			t.Errorf("%s: a second worklist differs from the first", tc.name)
		}
		if !reflect.DeepEqual(before, tc.res.Violations) {
			t.Fatalf("%s: scoring or ranking reordered the result it read", tc.name)
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
		want, _ := scoreOracle(res, 0)
		if diff := sameTotals(sc, want); diff != "" {
			t.Fatalf("call %d: %s", i, diff)
		}
		attr := attributions(sc)
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

// attributions is the worklist Propose once walked: every violation and
// hotspot the score counted with its weight, sorted most expensive first
// (ties by rule, then marker position, then — so the order is total —
// layer). Each rule's violations are already in that order; each
// layer's hotspot boxes are sorted on a copy, since scan order is not
// marker order. The scored result is only read.
func attributions(sc Score) []Attribution {
	n := 0
	for _, b := range sc.blocks {
		n += len(b.vs) + len(b.hs)
	}
	if n == 0 {
		return nil
	}
	attr := make([]Attribution, 0, n)
	for _, b := range sc.blocks {
		for _, v := range b.vs {
			attr = append(attr, Attribution{Rule: b.rule, Layer: v.Layer, Marker: v.Marker, Weight: b.weight})
		}
		if len(b.hs) == 0 {
			continue
		}
		boxes := make([]geom.Rect, len(b.hs))
		for i, h := range b.hs {
			boxes[i] = h.Box
		}
		slices.SortFunc(boxes, geom.Rect.Compare)
		for _, box := range boxes {
			attr = append(attr, Attribution{Rule: b.rule, Layer: b.layer, Marker: box, Weight: b.weight})
		}
	}
	return attr
}

// proposeOracle is Propose as it stood when it walked the worklist: one
// attribution at a time, a skip key built for each, every proposal
// searching all of the cell's own shapes.
func proposeOracle(ctx context.Context, t *tech.Tech, top *layout.Cell, sc Score) ([]Fix, map[string]int, error) {
	skipped := make(map[string]int)
	var fixes []Fix
	for _, a := range attributions(sc) {
		switch {
		case strings.Contains(a.Rule, ".space.") && !a.Layer.IsVia():
			if f, ok := proposeSpread(top.Shapes, a); ok {
				fixes = append(fixes, f)
			} else {
				skipped[a.Rule+":"+SkipNotTopLevel]++
			}
		case strings.Contains(a.Rule, ".enc."):
			if f, ok := proposeGrow(t, top.Shapes, a); ok {
				fixes = append(fixes, f)
			} else {
				skipped[a.Rule+":"+SkipNotTopLevel]++
			}
		default:
			skipped[a.Rule+":"+SkipNoStrategy]++
		}
	}
	rep, err := dvia.Insert(ctx, top.Shapes, t)
	if err != nil {
		return nil, nil, err
	}
	for _, ins := range rep.Placed {
		fixes = append(fixes, Fix{
			Kind: "double", Rule: "single." + ins.Via.String(), Target: ins.Origin,
			Weight: singleViaWeight, Delta: Delta{Added: ins.Shapes},
		})
	}
	if unfixed := rep.Candidates - rep.Inserted; unfixed > 0 {
		skipped["single-via:no-legal-position"] += unfixed
	}
	sort.SliceStable(fixes, func(i, j int) bool {
		a, b := fixes[i], fixes[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		am, bm := a.Target, b.Target
		if am.Y0 != bm.Y0 {
			return am.Y0 < bm.Y0
		}
		return am.X0 < bm.X0
	})
	return fixes, skipped, nil
}

// Propose, reading the score rule by rule over shapes bucketed by layer,
// proposes what the worklist walk proposed, in the same order, and skips
// what it skipped, on a repair chip, on a routed block and on the chip
// with hotspots on two layers scored beside its violations.
func TestProposeMatchesOracle(t *testing.T) {
	tt := tech.N45()
	chip, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 3, Slots: 3, Defects: 3, RepairDefects: 2})
	if err != nil {
		t.Fatal(err)
	}
	block, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	o := tiling.Opts{Tile: 9000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000}
	type fixture struct {
		name string
		top  *layout.Cell
		res  *tiling.Result
	}
	var cases []fixture
	for _, c := range []struct {
		name string
		top  *layout.Cell
	}{{"chip", chip.Top}, {"block", block.Top}} {
		res, err := tiling.EvaluateChip(context.Background(), tt, c.top, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases, fixture{c.name, c.top, res})
	}
	spots := *cases[0].res
	spots.Hotspots = map[tech.Layer][]litho.Hotspot{
		tech.Metal2: {{Box: geom.R(900, 500, 960, 560)}, {Box: geom.R(100, 500, 160, 560)}},
		tech.Metal1: {{Box: geom.R(5000, 5000, 5050, 5050)}},
	}
	cases = append(cases, fixture{"chip+hotspots", chip.Top, &spots})
	for _, c := range cases {
		sc := ScoreResult(c.res, 4, Weights{})
		fixes, skipped, err := Propose(context.Background(), tt, c.top, sc, Weights{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantFixes, wantSkipped, err := proposeOracle(context.Background(), tt, c.top, sc)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if len(fixes) == 0 || len(skipped) == 0 {
			t.Fatalf("%s: %d fixes and %d skip reasons; the case is vacuous", c.name, len(fixes), len(skipped))
		}
		if !reflect.DeepEqual(fixes, wantFixes) {
			t.Errorf("%s: %d fixes differ from the oracle's %d\n got %+v\nwant %+v", c.name, len(fixes), len(wantFixes), fixes, wantFixes)
		}
		if !reflect.DeepEqual(skipped, wantSkipped) {
			t.Errorf("%s: skipped %v, oracle %v", c.name, skipped, wantSkipped)
		}
		t.Logf("%s: %d violations, %d fixes, skipped %v", c.name, len(c.res.Violations), len(fixes), skipped)
	}
}
