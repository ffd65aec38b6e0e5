package drc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/tech"
)

// endcapOracle is Endcap.Check as it was before the rule learned to
// look only near each gate: both subtractions sweep the whole poly and
// diff layers, and the transit probe scans the whole poly layer. Cost
// is gates × layer size; kept as the differential-test reference.
func endcapOracle(r Endcap, ctx *Context) []Violation {
	poly := ctx.Layers[tech.Poly]
	diff := ctx.Layers[tech.Diff]
	if len(poly) == 0 || len(diff) == 0 {
		return nil
	}
	gates := geom.Intersect(poly, diff)
	var out []Violation
	for _, g := range geom.BandedOf(gates).Components() {
		bb := geom.BBoxOf(g)
		mx := (bb.X0 + bb.X1) / 2
		vertical := geom.CoversPoint(poly, geom.Pt(mx, bb.Y1+1)) ||
			geom.CoversPoint(poly, geom.Pt(mx, bb.Y0-1))
		band := bb.BloatXY(r.Ext, 0)
		if vertical {
			band = bb.BloatXY(0, r.Ext)
		}
		demand := geom.Subtract(geom.Intersect(geom.Dilate(g, r.Ext), []geom.Rect{band}), diff)
		missing := geom.Subtract(demand, poly)
		if geom.AreaOf(missing) > 0 {
			out = append(out, Violation{
				Rule:   r.Name(),
				Layer:  tech.Poly,
				Marker: geom.BBoxOf(missing),
				Detail: fmt.Sprintf("gate endcap < %d", r.Ext),
			})
		}
	}
	return out
}

func polyS(r geom.Rect) layout.Shape { return layout.Shape{Layer: tech.Poly, R: r, Net: layout.NoNet} }
func diffS(r geom.Rect) layout.Shape { return layout.Shape{Layer: tech.Diff, R: r, Net: layout.NoNet} }

// checkEndcap runs the rule and the oracle on the same shapes and
// returns how many violations they agreed on, and for how many gates
// the rule built the demand region rather than prove it empty from the
// prepared layers. A violation is only ever found by building.
func checkEndcap(t *testing.T, name string, shapes []layout.Shape) (found int, built int64) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	counts := func() (asked, built int64) {
		c := obs.Default().Snapshot().Counters
		return c["drc.endcap.gates.asked"], c["drc.endcap.gates.built"]
	}
	tt := tech.N45()
	rule := Endcap{Ext: 100}
	asked0, built0 := counts()
	got := rule.Check(NewContext(tt, shapes))
	asked, built := counts()
	asked, built = asked-asked0, built-built0
	want := endcapOracle(rule, NewContext(tt, shapes))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Endcap.Check\n got %v\nwant %v", name, got, want)
	}
	if built > asked || int64(len(got)) > built {
		t.Fatalf("%s: %d violations from %d gates built of %d asked", name, len(got), built, asked)
	}
	return len(got), built
}

func TestEndcapMatchesOracleHandmade(t *testing.T) {
	cases := []struct {
		name   string
		shapes []layout.Shape
		want   int  // -1: whatever the oracle says
		asks   bool // the answer must come without building a demand region
	}{
		{"no-layers", nil, 0, true},
		{"poly-only", []layout.Shape{polyS(geom.R(0, 0, 50, 500))}, 0, false},
		{"diff-only", []layout.Shape{diffS(geom.R(0, 0, 500, 200))}, 0, false},
		{"disjoint", []layout.Shape{polyS(geom.R(0, 0, 50, 500)), diffS(geom.R(1000, 0, 1500, 200))}, 0, false},
		{"clean-vertical", []layout.Shape{polyS(geom.R(200, -100, 250, 300)), diffS(geom.R(0, 0, 500, 200))}, 0, true},
		{"short-top", []layout.Shape{polyS(geom.R(200, -100, 250, 260)), diffS(geom.R(0, 0, 500, 200))}, 1, false},
		{"clean-horizontal", []layout.Shape{polyS(geom.R(-100, 80, 600, 130)), diffS(geom.R(0, 0, 500, 200))}, 0, true},
		{"short-left", []layout.Shape{polyS(geom.R(-40, 80, 600, 130)), diffS(geom.R(0, 0, 500, 200))}, 1, false},
		// The poly stops exactly at the diff edge: no endcap at all, but
		// also nothing past the gate for the transit probe to find, so
		// the rule reads the gate as horizontal and the diff covers it.
		{"flush-both-ends", []layout.Shape{polyS(geom.R(200, 0, 250, 200)), diffS(geom.R(0, 0, 500, 200))}, 0, false},
		// L: a vertical gate whose poly turns above the diff.
		{"L-poly", []layout.Shape{
			polyS(geom.R(200, -100, 250, 400)), polyS(geom.R(250, 350, 600, 400)),
			diffS(geom.R(0, 0, 500, 200)),
		}, 0, false},
		// L whose bend sits on the diff: one gate component of two rects.
		{"L-on-diff", []layout.Shape{
			polyS(geom.R(200, -100, 250, 150)), polyS(geom.R(200, 100, 700, 150)),
			diffS(geom.R(0, 0, 500, 200)),
		}, -1, false},
		// T: a horizontal bar over the diff with a stem leaving it.
		{"T-poly", []layout.Shape{
			polyS(geom.R(-100, 80, 600, 130)), polyS(geom.R(220, 130, 270, 420)),
			diffS(geom.R(0, 0, 500, 200)),
		}, -1, false},
		{"T-short-stem", []layout.Shape{
			polyS(geom.R(-100, 80, 600, 130)), polyS(geom.R(220, 130, 270, 240)),
			diffS(geom.R(0, 0, 500, 200)),
		}, -1, false},
		// Two gates sharing one diff, one clean and one short; a second
		// diff under the same poly further up.
		{"shared-diff", []layout.Shape{
			polyS(geom.R(100, -100, 150, 300)), polyS(geom.R(300, -20, 350, 300)),
			diffS(geom.R(0, 0, 500, 200)), diffS(geom.R(0, 600, 500, 800)),
			polyS(geom.R(100, 500, 150, 850)),
		}, -1, false},
		// The demand region of one gate is partly covered by a
		// neighbour's poly and by another diff that only touches the band.
		{"neighbour-cover", []layout.Shape{
			polyS(geom.R(200, 0, 250, 260)), polyS(geom.R(180, 260, 400, 330)),
			diffS(geom.R(0, 0, 500, 200)), diffS(geom.R(0, 300, 500, 400)),
		}, -1, false},
		// Gates at the very edge of all geometry, where a tile's pad
		// cuts: nothing lies beyond them in any layer.
		{"at-extent-corner", []layout.Shape{
			polyS(geom.R(0, 0, 50, 200)), diffS(geom.R(0, 0, 300, 200)),
			polyS(geom.R(250, 0, 300, 200)),
		}, 2, false},
		{"negative-coordinates", []layout.Shape{
			polyS(geom.R(-5200, -4100, -5150, -3700)), diffS(geom.R(-5400, -4000, -4900, -3800)),
			polyS(geom.R(-5050, -4050, -5000, -3750)),
		}, -1, false},
		// The shortcut's own cases. An L-shaped gate (two rects, one
		// component) deep inside a diff that covers its whole band.
		{"L-gate-band-under-diff", []layout.Shape{
			polyS(geom.R(200, -100, 250, 150)), polyS(geom.R(200, 100, 700, 150)),
			diffS(geom.R(0, -200, 1000, 400)),
		}, 0, true},
		// A short endcap whose last 40 nm of band lie under a second diff
		// that abuts the poly end: neither layer covers the band alone.
		{"band-covered-jointly", []layout.Shape{
			polyS(geom.R(200, -100, 250, 260)),
			diffS(geom.R(0, 0, 500, 200)), diffS(geom.R(0, 260, 500, 400)),
		}, 0, true},
		{"band-one-nm-short", []layout.Shape{polyS(geom.R(200, -100, 250, 299)), diffS(geom.R(0, 0, 500, 200))}, 1, false},
		// Poly beside the band, sharing its edge: reached by the index
		// query, no area inside.
		{"poly-touches-band-edge", []layout.Shape{
			polyS(geom.R(200, -100, 250, 260)), polyS(geom.R(250, 150, 300, 400)),
			diffS(geom.R(0, 0, 500, 200)),
		}, 1, false},
	}
	for _, c := range cases {
		n, built := checkEndcap(t, c.name, c.shapes)
		if c.want >= 0 && n != c.want {
			t.Errorf("%s: %d violations, want %d", c.name, n, c.want)
		}
		if c.asks && built != 0 {
			t.Errorf("%s: built the demand region of %d gates, want none", c.name, built)
		}
	}
}

// Random bars of poly over random boxes of diff: overlapping bars make
// L, T and plus-shaped gates, boxes abut and overlap, and gates land on
// the extent of the geometry.
func TestEndcapMatchesOracleRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	found, built := 0, int64(0)
	for round := 0; round < 300; round++ {
		var shapes []layout.Shape
		for i, n := 0, 1+rnd.Intn(6); i < n; i++ {
			x, y := rnd.Int63n(3000)-500, rnd.Int63n(3000)-500
			shapes = append(shapes, diffS(geom.R(x, y, x+200+rnd.Int63n(800), y+150+rnd.Int63n(400))))
		}
		for i, n := 0, 1+rnd.Intn(10); i < n; i++ {
			x, y := rnd.Int63n(3000)-500, rnd.Int63n(3000)-500
			long, wide := 100+rnd.Int63n(1200), 40+rnd.Int63n(60)
			if rnd.Intn(2) == 0 {
				shapes = append(shapes, polyS(geom.R(x, y, x+wide, y+long)))
			} else {
				shapes = append(shapes, polyS(geom.R(x, y, x+long, y+wide)))
			}
		}
		n, b := checkEndcap(t, fmt.Sprintf("round %d", round), shapes)
		found, built = found+n, built+b
	}
	if found == 0 || built == 0 {
		t.Fatalf("%d violations, %d gates built: the comparison is vacuous", found, built)
	}
}

// windowShapes is whole-shape extraction: every flat shape touching
// win, the multiset a tile's Context is built from. Gates near the
// window edge keep their own shapes but lose neighbours.
func windowShapes(flat []layout.Shape, win geom.Rect) []layout.Shape {
	var out []layout.Shape
	for _, s := range flat {
		if s.R.X0 <= win.X1 && win.X0 <= s.R.X1 && s.R.Y0 <= win.Y1 && win.Y0 <= s.R.Y1 {
			out = append(out, s)
		}
	}
	return out
}

// Generated chip tiles. The generator's gates are endcap-clean, so each
// tile is also checked with its poly ends trimmed at random, which
// turns a share of the gates into violations the two must agree on.
func TestEndcapMatchesOracleOnChipTiles(t *testing.T) {
	tt := tech.N45()
	l, info, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	flat := l.Flatten()
	rnd := rand.New(rand.NewSource(15))
	gates, found := 0, 0
	for _, tile := range []int64{12000, 24000} {
		// 7000 is no multiple of the slot pitch: the cuts pass through
		// macros and their gates, as seams of an unaligned grid do.
		for y := info.Die.Y0 + 7000; y < info.Die.Y1; y += tile {
			for x := info.Die.X0 + 7000; x < info.Die.X1; x += tile {
				shapes := windowShapes(flat, geom.R(x, y, x+tile, y+tile).Bloat(2000))
				ctx := NewContext(tt, shapes)
				gates += len(geom.Intersect(ctx.Layers[tech.Poly], ctx.Layers[tech.Diff]))
				// As generated every endcap is drawn to rule: all asked, none built.
				if n, built := checkEndcap(t, fmt.Sprintf("tile %d at %d,%d", tile, x, y), shapes); n != 0 || built != 0 {
					t.Fatalf("clean tile %d at %d,%d: %d violations, %d gates built", tile, x, y, n, built)
				}
				trimmed := make([]layout.Shape, len(shapes))
				copy(trimmed, shapes)
				for i := range trimmed {
					s := &trimmed[i]
					if s.Layer != tech.Poly || rnd.Intn(3) != 0 {
						continue
					}
					if cut := 30 + rnd.Int63n(90); s.R.Height() > s.R.Width() && s.R.Height() > 2*cut {
						s.R.Y1 -= cut
					} else if s.R.Width() > 2*cut {
						s.R.X0 += cut
					}
				}
				n, _ := checkEndcap(t, fmt.Sprintf("trimmed tile %d at %d,%d", tile, x, y), trimmed)
				found += n
			}
		}
	}
	if gates == 0 || found == 0 {
		t.Fatalf("%d gates, %d violations: the comparison is vacuous", gates, found)
	}
}

// What the rules read from a prepared layer must be what the whole-
// layer functions say. The band walk they read it with is geom.Banded's,
// held to a linear scan by geom's TestBanded and FuzzBanded.
func TestPreparedLayerMatchesGeom(t *testing.T) {
	tt := tech.N45()
	rnd := rand.New(rand.NewSource(15))
	gateRects := 0
	for round := 0; round < 100; round++ {
		var shapes []layout.Shape
		// Every eighth round the layer is empty.
		for i, n := 0, rnd.Intn(40)*min(round%8, 1); i < n; i++ {
			x, y := rnd.Int63n(6000)-3000, rnd.Int63n(6000)-3000
			shapes = append(shapes, m1(geom.R(x, y, x+1+rnd.Int63n(900), y+1+rnd.Int63n(900))))
		}
		// Poly and diff for a gates layer, built as Endcap builds it,
		// outside NewContext.
		for i, n := 0, rnd.Intn(20); i < 2*n; i++ {
			x, y := rnd.Int63n(6000)-3000, rnd.Int63n(6000)-3000
			l := []tech.Layer{tech.Poly, tech.Diff}[i%2]
			shapes = append(shapes, layout.Shape{Layer: l, R: geom.R(x, y, x+1+rnd.Int63n(1500), y+1+rnd.Int63n(1500)), Net: layout.NoNet})
		}
		ctx := NewContext(tt, shapes)
		ly, rs := ctx.layer(tech.Metal1), ctx.Layers[tech.Metal1]
		gates := geom.Intersect(ctx.layer(tech.Poly).Rects(), ctx.layer(tech.Diff).Rects())
		gl := new(preparedLayer)
		gl.Reset(gates)
		gateRects += len(gates)
		for q := 0; q < 40; q++ {
			x, y := rnd.Int63n(8000)-4000, rnd.Int63n(8000)-4000
			box := geom.R(x, y, x+rnd.Int63n(1500), y+rnd.Int63n(1500))
			if got, want := ly.ClipArea(box), geom.ClipArea(rs, box); got != want {
				t.Fatalf("ClipArea(%v) = %d, want %d over %v", box, got, want, rs)
			}
			if got, want := gl.ClipArea(box), geom.ClipArea(gates, box); got != want {
				t.Fatalf("gates ClipArea(%v) = %d, want %d over %v", box, got, want, gates)
			}
			// Density through the band walk is the free function bit for bit:
			// on the box (empty or a segment when a draw was 0), far off
			// the layer, and inside out.
			for _, w := range []geom.Rect{box, box.Translate(geom.Pt(1<<30, -(1 << 30))), {X0: box.X1, Y0: box.Y0, X1: box.X0, Y1: box.Y1}} {
				if got, want := ctx.DensityIn(tech.Metal1, w), DensityIn(rs, w); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Context.DensityIn(%v) = %v, DensityIn = %v over %v", w, got, want, rs)
				}
			}
			p := geom.Pt(x, y)
			if len(rs) > 0 && q%2 == 0 {
				r := rs[rnd.Intn(len(rs))] // on a boundary more often than not
				p = geom.Pt(r.X0+rnd.Int63n(r.Width()+1), r.Y1)
			}
			if got, want := ly.coversPoint(p), geom.CoversPoint(rs, p); got != want {
				t.Fatalf("coversPoint(%v) = %v, want %v over %v", p, got, want, rs)
			}
			probe := []geom.Rect{box}
			if got, want := geom.Subtract(probe, ly.touching(box)), geom.Subtract(probe, rs); !reflect.DeepEqual(got, want) {
				t.Fatalf("subtracting touching(%v) gives %v, the layer %v", box, got, want)
			}
		}
	}
	if gateRects == 0 {
		t.Fatal("no round drew a gate: the gates layer went unchecked")
	}
}
