package geom

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// touchScan is what Near must visit: the positions of the rects that
// intersect or touch q, by a linear scan. An inside-out query touches
// nothing, as in Index.
func touchScan(rs []Rect, q Rect) []int {
	if q.X0 > q.X1 || q.Y0 > q.Y1 {
		return nil
	}
	var out []int
	for i, r := range rs {
		if r.X0 <= q.X1 && q.X0 <= r.X1 && r.Y0 <= q.Y1 && q.Y0 <= r.Y1 {
			out = append(out, i)
		}
	}
	return out
}

// bandedQueries is the query set checkBanded asks of a set: every rect
// bloated by lim (the corner scan's query); boxes touching a rect only
// along one of its sides or only at one of its corners; its corners
// and its centre as points; it inside out; the column and the row of
// the set's bounding box through it, whose cut makes abutting bands that
// differ only outside it coalesce; the bounding box and its left side,
// each over every band; and a box far off the set.
func bandedQueries(rs []Rect, lim int64) []Rect {
	bb := BBoxOf(rs).Bloat(lim)
	var qs []Rect
	for _, r := range rs {
		qs = append(qs,
			r.Bloat(lim),
			R(r.X1, r.Y0, r.X1+lim, r.Y1), R(r.X0-lim, r.Y0, r.X0, r.Y1),
			R(r.X0, r.Y1, r.X1, r.Y1+lim), R(r.X0, r.Y0-lim, r.X1, r.Y0),
			R(r.X1, r.Y1, r.X1+lim, r.Y1+lim), R(r.X0-lim, r.Y0-lim, r.X0, r.Y0),
			R(r.X1, r.Y0-lim, r.X1+lim, r.Y0), R(r.X0-lim, r.Y1, r.X0, r.Y1+lim),
			R(r.X0, r.Y0, r.X0, r.Y0), R(r.X1, r.Y1, r.X1, r.Y1),
			R(r.X0, r.Y1, r.X0, r.Y1), R(r.X1, r.Y0, r.X1, r.Y0),
			R(r.Center().X, r.Center().Y, r.Center().X, r.Center().Y),
			Rect{X0: r.X1, Y0: r.Y1, X1: r.X0, Y1: r.Y0},
			R(r.X0, bb.Y0, r.X1, bb.Y1), R(bb.X0, r.Y0, bb.X1, r.Y1),
		)
	}
	return append(qs, bb, R(bb.X0, bb.Y0, bb.X0, bb.Y1), bb.Translate(Pt(bb.Width()+1<<20, -(bb.Height()+1<<20))))
}

// checkBanded holds the banded form of rs, and of rs moved by ±2^40 each
// way, to the whole-set functions: Components to componentsOracle, the
// same partition numbered by first rect, Regions to each component's
// area and bounding box, and over bandedQueries(rs, lim)
// Near to a linear touch-inclusive scan, ClipArea to ClipArea, and Clip
// to Intersect rect for rect, also when it appends to rects already in
// dst.
func checkBanded(t *testing.T, rs []Rect, lim int64) {
	t.Helper()
	if !IsNormal(rs) {
		t.Fatalf("not in normal form: %v", rs)
	}
	for _, d := range []Point{{}, {X: 1 << 40, Y: -(1 << 40)}, {X: -(1 << 40), Y: 1 << 40}} {
		moved := make([]Rect, len(rs))
		for i, r := range rs {
			moved[i] = r.Translate(d)
		}
		b := BandedOf(moved)
		if got := b.Rects(); !sameRects(got, moved) {
			t.Fatalf("Rects() = %v, built from %v", got, moved)
		}
		comps := b.Components()
		if want := componentsOracle(moved); !reflect.DeepEqual(comps, want) {
			t.Fatalf("Components() over %v\n got %v\nwant %v", moved, comps, want)
		}
		var want []Region
		for _, c := range comps {
			want = append(want, Region{AreaOf(c), BBoxOf(c)})
		}
		if got := b.Regions(); !slices.Equal(got, want) {
			t.Fatalf("Regions() over %v\n got %v\nwant %v", moved, got, want)
		}
		for _, q := range bandedQueries(moved, lim) {
			var got []int
			b.Near(q, func(i int, r Rect) {
				if r != moved[i] {
					t.Fatalf("Near(%v) passed rect %v at position %d, which holds %v", q, r, i, moved[i])
				}
				got = append(got, i)
			})
			if want := touchScan(moved, q); !slices.Equal(got, want) {
				t.Fatalf("Near(%v) visits %v, want %v over %v", q, got, want, moved)
			}
			if got, want := b.ClipArea(q), ClipArea(moved, q); got != want {
				t.Fatalf("ClipArea(%v) = %d, want %d over %v", q, got, want, moved)
			}
			want := Intersect(moved, []Rect{q})
			if got := b.Clip(q, nil); !sameRects(got, want) {
				t.Fatalf("Clip(%v) = %v, Intersect %v over %v", q, got, want, moved)
			}
			// A rect already in dst that the first band would merge with,
			// were it part of the clip, stays as it is.
			if len(want) > 0 {
				w := want[0]
				below := Rect{X0: w.X0, Y0: w.Y0 - 1, X1: w.X1, Y1: w.Y0}
				if got := b.Clip(q, []Rect{below}); len(got) != len(want)+1 || got[0] != below || !sameRects(got[1:], want) {
					t.Fatalf("Clip(%v) after %v = %v, want it followed by %v", q, below, got, want)
				}
			}
		}
	}
}

// Sets with no band, one rect, one band of several, abutting bands a
// column cut coalesces (three of them into one), and random layers.
func TestBanded(t *testing.T) {
	checkBanded(t, nil, 70)
	checkBanded(t, []Rect{R(0, 0, 100, 50)}, 70)
	checkBanded(t, []Rect{R(-300, 0, -200, 50), R(0, 0, 100, 50), R(101, 0, 170, 50), R(400, 0, 900, 50)}, 70)
	stair := Normalize([]Rect{R(0, 0, 100, 10), R(0, 10, 120, 20), R(0, 20, 140, 30), R(200, 20, 300, 30)})
	checkBanded(t, stair, 10)
	if got, want := BandedOf(stair).Clip(R(0, 0, 100, 30), nil), []Rect{R(0, 0, 100, 30)}; !sameRects(got, want) {
		t.Fatalf("column cut of %v = %v, want %v", stair, got, want)
	}
	rnd := rand.New(rand.NewSource(40))
	for round := 0; round < 60; round++ {
		var rs []Rect
		for i, n := 0, 1+rnd.Intn(30); i < n; i++ {
			x, y := rnd.Int63n(3000)-1500, rnd.Int63n(3000)-1500
			rs = append(rs, R(x, y, x+1+rnd.Int63n(600), y+1+rnd.Int63n(600)))
		}
		checkBanded(t, Normalize(rs), 70)
	}
}

// Touching rects, corners included, are one component; so are the
// normal-form rects of overlapping ones, and a component's region
// measures what its rects cover.
func TestComponents(t *testing.T) {
	rs := Normalize([]Rect{
		R(0, 0, 10, 10),
		R(10, 0, 20, 10), // touches first
		R(100, 100, 110, 110),
	})
	if comps := BandedOf(rs).Components(); len(comps) != 2 {
		t.Fatalf("components of %v = %v, want 2", rs, comps)
	}
	if comps := BandedOf(nil).Components(); comps != nil {
		t.Fatalf("empty set has components %v", comps)
	}
	// Two overlapping rects, a third meeting the second only at a
	// corner, and one apart. The first three are one region.
	raw := []Rect{
		R(0, 0, 10, 10),
		R(5, 5, 15, 15),
		R(15, 15, 20, 20),
		R(100, 100, 110, 110),
	}
	comps := BandedOf(Normalize(raw)).Components()
	if len(comps) != 2 {
		t.Fatalf("components of %v = %v, want 2", raw, comps)
	}
	if a := AreaOf(comps[0]); a != 100+75+25 {
		t.Fatalf("first component %v covers %d, want 200", comps[0], a)
	}
	want := []Region{{200, R(0, 0, 20, 20)}, {100, R(100, 100, 110, 110)}}
	if got := BandedOf(Normalize(raw)).Regions(); !slices.Equal(got, want) {
		t.Fatalf("regions of %v = %v, want %v", raw, got, want)
	}
	if got := BandedOf(nil).Regions(); got != nil {
		t.Fatalf("empty set has regions %v", got)
	}
}

// FuzzBanded draws sets as FuzzRegionOps does, on a small grid where
// touching, abutting and nested rects are common, normalizes their union
// and holds its banded form to checkBanded at limits 1 and 7, Components
// included.
func FuzzBanded(f *testing.F) {
	f.Add([]byte{0, 0, 8, 8, 5, 5}, uint8(0))
	f.Add([]byte{0, 0, 0, 5, 2, 0, 2, 0, 7, 2, 0, 4, 0, 3, 2}, uint8(1)) // a stair of abutting bands
	f.Add([]byte{0, 0, 0, 2, 9, 0, 4, 0, 2, 9, 0, 0, 3, 9, 1}, uint8(0)) // one band of gapped rects, one abutting
	for _, seed := range regionSeeds() {
		f.Add(seed, uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		var all []Rect
		for _, rs := range regionSets(data) {
			all = append(all, rs...)
		}
		checkBanded(t, Normalize(all), []int64{1, 7}[pick%2])
	})
}
