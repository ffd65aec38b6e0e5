package drc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

func ctxOf(t *tech.Tech, shapes ...layout.Shape) *Context {
	return NewContext(t, shapes)
}

func m1(r geom.Rect) layout.Shape {
	return layout.Shape{Layer: tech.Metal1, R: r, Net: layout.NoNet}
}

func TestMinWidthFlagsNarrow(t *testing.T) {
	tt := tech.N45()
	rule := MinWidth{Layer: tech.Metal1, W: 70}
	// 60-wide line: violation.
	vs := rule.Check(ctxOf(tt, m1(geom.R(0, 0, 60, 1000))))
	if len(vs) != 1 {
		t.Fatalf("narrow line: %d violations, want 1: %v", len(vs), vs)
	}
	if !strings.Contains(vs[0].Detail, "width 60") {
		t.Errorf("detail = %q", vs[0].Detail)
	}
	// Exactly at minimum: clean.
	vs = rule.Check(ctxOf(tt, m1(geom.R(0, 0, 70, 1000))))
	if len(vs) != 0 {
		t.Fatalf("at-minimum line flagged: %v", vs)
	}
	// Wide line: clean.
	vs = rule.Check(ctxOf(tt, m1(geom.R(0, 0, 500, 1000))))
	if len(vs) != 0 {
		t.Fatalf("wide line flagged: %v", vs)
	}
}

func TestMinWidthFlagsNeckOnly(t *testing.T) {
	tt := tech.N45()
	rule := MinWidth{Layer: tech.Metal1, W: 70}
	// A wide region with a narrow horizontal neck.
	shapes := []layout.Shape{
		m1(geom.R(0, 0, 200, 200)),
		m1(geom.R(200, 70, 400, 130)), // 60-tall neck
		m1(geom.R(400, 0, 600, 200)),
	}
	vs := rule.Check(ctxOf(tt, shapes...))
	if len(vs) != 1 {
		t.Fatalf("neck: %d violations, want 1: %v", len(vs), vs)
	}
	// Marker must lie on the neck.
	if vs[0].Marker.X0 < 200 || vs[0].Marker.X1 > 400 {
		t.Errorf("marker %v not on the neck", vs[0].Marker)
	}
}

func TestMinWidthVerticalNeck(t *testing.T) {
	tt := tech.N45()
	rule := MinWidth{Layer: tech.Metal1, W: 70}
	// Vertical narrow neck (width in x).
	shapes := []layout.Shape{
		m1(geom.R(0, 0, 200, 200)),
		m1(geom.R(70, 200, 130, 400)), // 60-wide neck
		m1(geom.R(0, 400, 200, 600)),
	}
	vs := rule.Check(ctxOf(tt, shapes...))
	if len(vs) != 1 {
		t.Fatalf("vertical neck: %d violations, want 1: %v", len(vs), vs)
	}
}

func TestMinSpaceEdgeToEdge(t *testing.T) {
	tt := tech.N45()
	rule := MinSpace{Layer: tech.Metal1, S: 70}
	// 60 gap: violation.
	vs := rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 100, 1000)),
		m1(geom.R(160, 0, 260, 1000)),
	))
	if len(vs) != 1 {
		t.Fatalf("60 gap: %d violations, want 1: %v", len(vs), vs)
	}
	// 70 gap: clean.
	vs = rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 100, 1000)),
		m1(geom.R(170, 0, 270, 1000)),
	))
	if len(vs) != 0 {
		t.Fatalf("at-minimum gap flagged: %v", vs)
	}
}

func TestMinSpaceVerticalGap(t *testing.T) {
	tt := tech.N45()
	rule := MinSpace{Layer: tech.Metal1, S: 70}
	vs := rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 1000, 100)),
		m1(geom.R(0, 150, 1000, 250)), // 50 vertical gap
	))
	if len(vs) != 1 {
		t.Fatalf("vertical gap: %d violations, want 1: %v", len(vs), vs)
	}
}

func TestMinSpaceNotch(t *testing.T) {
	tt := tech.N45()
	rule := MinSpace{Layer: tech.Metal1, S: 70}
	// U shape: notch of 50 between the arms of the same polygon.
	shapes := []layout.Shape{
		m1(geom.R(0, 0, 250, 100)),
		m1(geom.R(0, 100, 100, 400)),
		m1(geom.R(150, 100, 250, 400)), // 50 notch between arms
	}
	vs := rule.Check(ctxOf(tt, shapes...))
	if len(vs) != 1 {
		t.Fatalf("notch: %d violations, want 1: %v", len(vs), vs)
	}
}

func TestMinSpaceCornerToCorner(t *testing.T) {
	tt := tech.N45()
	rule := MinSpace{Layer: tech.Metal1, S: 70}
	// Diagonal rects, 40/40 corner gap => euclidean ~56.6 < 70.
	vs := rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 100, 100)),
		m1(geom.R(140, 140, 240, 240)),
	))
	if len(vs) != 1 {
		t.Fatalf("corner gap: %d violations, want 1: %v", len(vs), vs)
	}
	if !strings.Contains(vs[0].Detail, "corner") {
		t.Errorf("detail = %q", vs[0].Detail)
	}
	// 60/60 corner gap => euclidean ~84.9 >= 70: clean.
	vs = rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 100, 100)),
		m1(geom.R(160, 160, 260, 260)),
	))
	if len(vs) != 0 {
		t.Fatalf("legal corner gap flagged: %v", vs)
	}
}

func TestSpaceScanIgnoresFarPairsAcrossShapes(t *testing.T) {
	tt := tech.N45()
	rule := MinSpace{Layer: tech.Metal1, S: 200}
	// Three stacked bars, gaps of 250 each: the 250 gaps are legal, and
	// the outer pair (500 apart, with a bar between) must not be
	// misflagged.
	vs := rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 1000, 100)),
		m1(geom.R(0, 350, 1000, 450)),
		m1(geom.R(0, 700, 1000, 800)),
	))
	if len(vs) != 0 {
		t.Fatalf("legal stack flagged: %v", vs)
	}
}

func TestEnclosurePassAndFail(t *testing.T) {
	tt := tech.N45()
	rule := Enclosure{Via: tech.Via1, Metal: tech.Metal2, End: 20, Side: 5}
	via := layout.Shape{Layer: tech.Via1, R: geom.R(100, 100, 160, 160), Net: 0}
	// End enclosure in x, side in y: a horizontal-wire pad.
	good := layout.Shape{Layer: tech.Metal2, R: geom.R(80, 95, 180, 165), Net: 0}
	vs := rule.Check(ctxOf(tt, via, good))
	if len(vs) != 0 {
		t.Fatalf("enclosed via flagged: %v", vs)
	}
	// The transposed (vertical-wire) pad is equally legal.
	goodT := layout.Shape{Layer: tech.Metal2, R: geom.R(95, 80, 165, 180), Net: 0}
	vs = rule.Check(ctxOf(tt, via, goodT))
	if len(vs) != 0 {
		t.Fatalf("transposed enclosure flagged: %v", vs)
	}
	// Symmetric side-only enclosure satisfies neither orientation.
	bad := layout.Shape{Layer: tech.Metal2, R: geom.R(95, 95, 165, 165), Net: 0}
	vs = rule.Check(ctxOf(tt, via, bad))
	if len(vs) != 1 {
		t.Fatalf("under-enclosed via: %d violations, want 1", len(vs))
	}
	// A shifted pad with enough total overlap but one short end fails.
	shifted := layout.Shape{Layer: tech.Metal2, R: geom.R(90, 95, 190, 165), Net: 0}
	vs = rule.Check(ctxOf(tt, via, shifted))
	if len(vs) != 1 {
		t.Fatalf("shifted pad: %d violations, want 1", len(vs))
	}
}

func TestViaSizeRule(t *testing.T) {
	tt := tech.N45()
	rule := ViaSize{Layer: tech.Via1, Size: 70}
	ok := layout.Shape{Layer: tech.Via1, R: geom.R(0, 0, 70, 70), Net: 0}
	bad := layout.Shape{Layer: tech.Via1, R: geom.R(100, 0, 190, 70), Net: 0}
	vs := rule.Check(ctxOf(tt, ok, bad))
	if len(vs) != 1 {
		t.Fatalf("via size: %d violations, want 1: %v", len(vs), vs)
	}
}

func TestMinAreaRule(t *testing.T) {
	tt := tech.N45()
	rule := MinArea{Layer: tech.Metal1, A: 20000}
	// 100x100 = 10000 < 20000: violation. 200x200: fine.
	vs := rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 100, 100)),
		m1(geom.R(1000, 0, 1200, 200)),
	))
	if len(vs) != 1 {
		t.Fatalf("min area: %d violations, want 1: %v", len(vs), vs)
	}
	// Two touching rects forming one region above threshold: clean.
	vs = rule.Check(ctxOf(tt,
		m1(geom.R(0, 0, 100, 100)),
		m1(geom.R(100, 0, 200, 100)),
	))
	if len(vs) != 0 {
		t.Fatalf("merged region flagged: %v", vs)
	}
}

func TestComponents(t *testing.T) {
	rs := geom.Normalize([]geom.Rect{
		geom.R(0, 0, 10, 10),
		geom.R(10, 0, 20, 10), // touches first
		geom.R(100, 100, 110, 110),
	})
	comps := Components(rs)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(Components(nil)) != 0 {
		t.Fatalf("empty set should have no components")
	}
}

func TestDensityWindowRule(t *testing.T) {
	tt := tech.N45()
	rule := DensityWindow{Layer: tech.Metal1, Window: 1000, Min: 0.2, Max: 0.8}
	// A dense corner and an empty rest: both extremes violate.
	shapes := []layout.Shape{
		m1(geom.R(0, 0, 1000, 1000)), // 100% dense window
		{Layer: tech.Metal2, R: geom.R(0, 0, 4000, 4000), Net: layout.NoNet},
	}
	vs := rule.Check(ctxOf(tt, shapes...))
	if len(vs) == 0 {
		t.Fatalf("density extremes not flagged")
	}
	var sawHigh, sawLow bool
	for _, v := range vs {
		if strings.Contains(v.Detail, "density 1.000") {
			sawHigh = true
		}
		if strings.Contains(v.Detail, "density 0.000") {
			sawLow = true
		}
	}
	if !sawHigh || !sawLow {
		t.Fatalf("expected both high and low density violations: %v", vs)
	}
}

func TestWindowGrid(t *testing.T) {
	ws := WindowGrid(geom.R(0, 0, 2000, 1000), 1000, 500)
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	for _, w := range ws {
		if w.Width() < 500 || w.Height() < 500 {
			t.Errorf("degenerate window %v", w)
		}
	}
	if got := WindowGrid(geom.Rect{}, 1000, 500); got != nil {
		t.Errorf("empty extent should yield no windows")
	}
}

func TestEndcapRule(t *testing.T) {
	tt := tech.N45()
	rule := Endcap{Ext: 100}
	diff := layout.Shape{Layer: tech.Diff, R: geom.R(0, 200, 500, 500), Net: layout.NoNet}
	// Good: poly extends 120 beyond diff on both ends.
	good := layout.Shape{Layer: tech.Poly, R: geom.R(100, 80, 145, 620), Net: layout.NoNet}
	vs := rule.Check(ctxOf(tt, diff, good))
	if len(vs) != 0 {
		t.Fatalf("good endcap flagged: %v", vs)
	}
	// Bad: poly stops 40 above the diff top.
	bad := layout.Shape{Layer: tech.Poly, R: geom.R(300, 80, 345, 540), Net: layout.NoNet}
	vs = rule.Check(ctxOf(tt, diff, bad))
	if len(vs) != 1 {
		t.Fatalf("short endcap: %d violations, want 1: %v", len(vs), vs)
	}
}

func TestStandardDeckOnCleanAndDirty(t *testing.T) {
	tt := tech.N45()
	deck := StandardDeck(tt)
	if len(deck.Rules) == 0 {
		t.Fatal("empty deck")
	}
	// A trivially clean layout.
	clean := []layout.Shape{m1(geom.R(0, 0, 200, 200))}
	res := deck.Run(NewContext(tt, clean))
	if res.Count() != 0 {
		t.Fatalf("clean layout flagged: %v", res.Violations)
	}
	// A dirty layout: narrow wire + tight gap.
	dirty := []layout.Shape{
		m1(geom.R(0, 0, 50, 1000)),
		m1(geom.R(90, 0, 300, 1000)),
	}
	res = deck.Run(NewContext(tt, dirty))
	if res.ByRule["metal1.width.70"] == 0 {
		t.Errorf("width violation missed: %v", res.ByRule)
	}
	if res.ByRule["metal1.space.70"] == 0 {
		t.Errorf("space violation missed: %v", res.ByRule)
	}
	// Result ordering is deterministic.
	res2 := deck.Run(NewContext(tt, dirty))
	if len(res.Violations) != len(res2.Violations) {
		t.Fatalf("nondeterministic violation count")
	}
	for i := range res.Violations {
		if res.Violations[i] != res2.Violations[i] {
			t.Fatalf("nondeterministic ordering at %d", i)
		}
	}
}

func TestStandardDeckOnGeneratedBlock(t *testing.T) {
	// The generated block must be largely DRC-clean: the generators are
	// the baseline for experiments, so gross violations mean generator
	// bugs. Allow a small residue (router congestion edge cases).
	tt := tech.N45()
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 12, MaxFan: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	res := StandardDeck(tt).Run(NewContext(tt, flat))
	perShape := float64(res.Count()) / float64(len(flat))
	if perShape > 0.05 {
		byRule := res.ByRule
		t.Fatalf("generated block too dirty: %d violations over %d shapes (%v)", res.Count(), len(flat), byRule)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "m1.width", Layer: tech.Metal1, Marker: geom.R(0, 0, 5, 5), Detail: "w"}
	s := v.String()
	if !strings.Contains(s, "m1.width") || !strings.Contains(s, "metal1") {
		t.Errorf("String = %q", s)
	}
}

// fixedRule reports a canned list, in the order given.
type fixedRule struct {
	name string
	vs   []Violation
}

func (r fixedRule) Name() string               { return r.name }
func (r fixedRule) Check(*Context) []Violation { return r.vs }

// Two runs that find the same violations must return the same slice,
// whatever order the rules found them in. The order RunCtx used to sort
// by stopped at (Rule, Y0, X0) and left ties where they fell.
func TestRunCtxOrderIsTotal(t *testing.T) {
	v := func(x1, y1 int64, layer tech.Layer, detail string) Violation {
		return Violation{Rule: "r", Layer: layer, Marker: geom.R(10, 20, x1, y1), Detail: detail}
	}
	// All tie on (Rule, Y0, X0); each differs from the first in one of
	// the fields the order continues with.
	vs := []Violation{
		v(30, 40, tech.Metal1, "a"),
		v(30, 50, tech.Metal1, "a"),
		v(35, 40, tech.Metal1, "a"),
		v(30, 40, tech.Metal2, "a"),
		v(30, 40, tech.Metal1, "b"),
		v(30, 40, tech.Metal1, "a"), // a true duplicate is kept
	}
	run := func(order []Violation) []Violation {
		d := &Deck{Rules: []Rule{fixedRule{"r", order}}}
		return d.RunCtx(context.Background(), NewContext(tech.N45(), nil), 1).Violations
	}
	want := run(vs)
	if len(want) != len(vs) {
		t.Fatalf("%d violations out, %d in", len(want), len(vs))
	}
	rnd := rand.New(rand.NewSource(15))
	for i := 0; i < 50; i++ {
		shuffled := slices.Clone(vs)
		rnd.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got := run(shuffled); !slices.Equal(got, want) {
			t.Fatalf("order depends on discovery order:\n got %v\nwant %v", got, want)
		}
	}
	for i := 1; i < len(want); i++ {
		if c := CompareViolations(want[i-1], want[i]); c > 0 || (c == 0 && want[i-1] != want[i]) {
			t.Fatalf("%v and %v are out of order or compare equal without being equal", want[i-1], want[i])
		}
	}
}

// Rules running concurrently share the Context's prepared layers; the
// result must be the sequential one. Meaningful under -race.
func TestDeckRunsConcurrentlyOnOneContext(t *testing.T) {
	tt := tech.N45()
	l, err := layout.GenerateBlock(tt, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 12, MaxFan: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	deck := StandardDeck(tt)
	want := deck.RunCtx(context.Background(), NewContext(tt, flat), 1)
	for i := 0; i < 4; i++ {
		got := deck.RunCtx(context.Background(), NewContext(tt, flat), 8)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel run differs from sequential: %v vs %v", got.ByRule, want.ByRule)
		}
	}
}

// An island under the width limit both ways is bounded by a horizontal
// pair of edges and by a vertical pair with the same box between them:
// one marker, two measurements. Which Detail the violation carries is
// defined (the horizontal pair's) and must not depend on the order the
// scan met the edges in.
func TestDedupSurvivorIsOrderIndependent(t *testing.T) {
	tt := tech.N45()
	rnd := rand.New(rand.NewSource(15))
	island := geom.R(20500, 20500, 20555, 20565) // 55 wide, 65 tall, under width 70
	shapes := []layout.Shape{m1(island)}
	for i := int64(0); i < 400; i++ {
		// One rect per 400 nm grid cell, from slivers to legal squares,
		// many close enough to a neighbour to violate spacing too.
		x, y := (i%20)*400+rnd.Int63n(200), (i/20)*400+rnd.Int63n(200)
		shapes = append(shapes, m1(geom.R(x, y, x+30+rnd.Int63n(170), y+30+rnd.Int63n(170))))
	}
	rules := []Rule{MinWidth{Layer: tech.Metal1, W: 70}, MinSpace{Layer: tech.Metal1, S: 140}}
	check := func(order func([]geom.Edge)) [][]Violation {
		ctx := NewContext(tt, shapes)
		ly := ctx.layer(tech.Metal1)
		edges, _ := ly.boundary()
		order(edges)
		ly.edgeIx = edgeIndex(edges)
		out := make([][]Violation, len(rules))
		for i, r := range rules {
			out[i] = r.Check(ctx)
		}
		return out
	}
	want := check(func([]geom.Edge) {})
	both := 0
	for _, v := range want[0] {
		if v.Marker.Width() < 70 && v.Marker.Height() < 70 {
			both++
			if d := fmt.Sprintf("width %d < 70", v.Marker.Height()); v.Detail != d {
				t.Fatalf("%v: detail %q, want the horizontal pair's %q", v.Marker, v.Detail, d)
			}
		}
		if v.Marker == island && v.Detail != "width 65 < 70" {
			t.Fatalf("island: %q", v.Detail)
		}
	}
	if both < 20 || len(want[1]) == 0 {
		t.Fatalf("%d markers with two measurements, %d spacing violations: the comparison is vacuous", both, len(want[1]))
	}
	if got := check(slices.Reverse[[]geom.Edge]); !reflect.DeepEqual(got, want) {
		t.Fatal("edges reversed: violations differ from those of the extraction's own order")
	}
	for i := 0; i < 8; i++ {
		got := check(func(es []geom.Edge) {
			rnd.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("edges shuffled (%d): violations differ from those of the extraction's own order", i)
		}
	}
}
