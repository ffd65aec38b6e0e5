package drc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// dimensionScanOracle is dimensionScan as it was before the scan learned
// the order of the boundary's sides: every boundary edge in one list, a
// spatial index over their bounding boxes, and for each edge a query of
// the strip lim deep beyond it, filtered by side, orientation, overlap
// and distance. Kept as the differential-test reference.
//
// One change from that code: it skipped an edge whose search strip was
// empty, which is lim = 2 (the strip is the single line one past the
// edge) and not lim = 1 as its comment said, so a 2 nm rule never saw a
// 1 nm gap. Nothing can be closer than lim only when lim <= 1.
func dimensionScanOracle(ly *preparedLayer, lim int64, interior bool, mk func(geom.Rect, int64) Violation) []Violation {
	if len(ly.rects) == 0 || lim <= 1 {
		return nil
	}
	edges := geom.BoundaryOfNormal(ly.rects)
	boxes := make([]geom.Rect, len(edges))
	for i, e := range edges {
		boxes[i] = geom.R(e.P0.X, e.P0.Y, e.P1.X, e.P1.Y)
	}
	ix := geom.IndexOf(layerCell, boxes)

	var cands []candidate
	for _, e := range edges {
		// Pick the "lower/left" member of each facing pair to avoid
		// double reporting.
		var wantSide geom.Side
		switch {
		case e.Horizontal() && interior && e.Interior == geom.Above:
			wantSide = geom.Below // facing top edge
		case e.Horizontal() && !interior && e.Interior == geom.Below:
			wantSide = geom.Above // facing bottom edge across a gap
		case !e.Horizontal() && interior && e.Interior == geom.Right:
			wantSide = geom.Left
		case !e.Horizontal() && !interior && e.Interior == geom.Left:
			wantSide = geom.Right
		default:
			continue
		}
		// Search region: from this edge outward/upward by lim.
		var search geom.Rect
		if e.Horizontal() {
			search = geom.R(e.P0.X, e.P0.Y+1, e.P1.X, e.P0.Y+lim-1)
		} else {
			search = geom.R(e.P0.X+1, e.P0.Y, e.P0.X+lim-1, e.P1.Y)
		}
		ix.QueryFunc(search, func(id int, _ geom.Rect) bool {
			f := edges[id]
			if f.Interior != wantSide || f.Horizontal() != e.Horizontal() {
				return true
			}
			var marker geom.Rect
			var dist int64
			var axis uint8
			if e.Horizontal() {
				if f.P0.Y <= e.P0.Y {
					return true
				}
				x0 := max(e.P0.X, f.P0.X)
				x1 := min(e.P1.X, f.P1.X)
				if x0 >= x1 {
					return true
				}
				dist = f.P0.Y - e.P0.Y
				marker = geom.R(x0, e.P0.Y, x1, f.P0.Y)
			} else {
				if f.P0.X <= e.P0.X {
					return true
				}
				y0 := max(e.P0.Y, f.P0.Y)
				y1 := min(e.P1.Y, f.P1.Y)
				if y0 >= y1 {
					return true
				}
				dist, axis = f.P0.X-e.P0.X, 1
				marker = geom.R(e.P0.X, y0, f.P0.X, y1)
			}
			if dist >= lim {
				return true
			}
			// Validity: space between must be all-interior (width) or
			// all-exterior (spacing).
			cov := ly.clipArea(marker)
			if interior && cov != marker.Area() {
				return true
			}
			if !interior && cov != 0 {
				return true
			}
			cands = append(cands, candidate{m: marker, axis: axis})
			return true
		})
	}
	var out []Violation
	for _, c := range dedupCandidates(cands) {
		out = append(out, mk(c.m, c.dist()))
	}
	return out
}

// componentsOracle is components as it was before the band walk: a
// union-find over a touch-inclusive index query per rect, right on any
// rect set, normalized or not.
func componentsOracle(rs []geom.Rect) [][]geom.Rect {
	ix := geom.IndexOf(layerCell, rs)
	n := len(rs)
	if n == 0 {
		return nil
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, r := range rs {
		ix.QueryFunc(r, func(id int, _ geom.Rect) bool {
			if id > i {
				if ra, rb := find(int32(i)), find(int32(id)); ra != rb {
					parent[rb] = ra
				}
			}
			return true
		})
	}
	var out [][]geom.Rect
	comp := make(map[int32]int, n) // by root
	for i, r := range rs {
		root := find(int32(i))
		c, ok := comp[root]
		if !ok {
			c = len(out)
			comp[root] = c
			out = append(out, nil)
		}
		out[c] = append(out[c], r)
	}
	return out
}

// minAreaOracle is MinArea.Check over the oracle's components, each
// measured by the union sweep.
func minAreaOracle(r MinArea, ctx *Context) []Violation {
	var out []Violation
	for _, comp := range componentsOracle(ctx.Layers[r.Layer]) {
		if a := geom.AreaOf(comp); a < r.A {
			out = append(out, Violation{
				Rule:   r.Name(),
				Layer:  r.Layer,
				Marker: geom.BBoxOf(comp),
				Detail: fmt.Sprintf("region area %d < %d", a, r.A),
			})
		}
	}
	return out
}

// checkDeckScans holds the width and spacing scans, MinArea and
// Components on rs to their oracles at limit lim.
func checkDeckScans(t *testing.T, rs []geom.Rect, lim int64) {
	t.Helper()
	shapes := make([]layout.Shape, len(rs))
	for i, r := range rs {
		shapes[i] = m1(r)
	}
	ctx := NewContext(tech.N45(), shapes)
	ly := ctx.layer(tech.Metal1)
	mk := func(m geom.Rect, d int64) Violation {
		return Violation{Marker: m, Detail: fmt.Sprint(d)}
	}
	for _, interior := range []bool{true, false} {
		got, want := dimensionScan(ly, lim, interior, mk), dimensionScanOracle(ly, lim, interior, mk)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dimensionScan(lim %d, interior %v) over %v\n got %v\nwant %v", lim, interior, rs, got, want)
		}
	}
	width := MinWidth{Layer: tech.Metal1, W: lim}
	if got, want := width.Check(ctx), dimensionScanOracle(ly, lim, true, func(m geom.Rect, d int64) Violation {
		return Violation{Rule: width.Name(), Layer: tech.Metal1, Marker: m, Detail: fmt.Sprintf("width %d < %d", d, lim)}
	}); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinWidth %d over %v\n got %v\nwant %v", lim, rs, got, want)
	}
	area := MinArea{Layer: tech.Metal1, A: lim * lim}
	if got, want := area.Check(ctx), minAreaOracle(area, ctx); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinArea %d over %v\n got %v\nwant %v", area.A, rs, got, want)
	}
	// Components of the raw rects are those of their normal form.
	if got, want := Components(rs), componentsOracle(geom.Normalize(rs)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Components(%v)\n got %v\nwant %v", rs, got, want)
	}
}

// FuzzDeckScans draws layers on a small grid around the origin, so that
// touching, corner-touching and overlapping rects, slivers and holes are
// common, and holds the deck's scans to their oracles at limits from the
// degenerate (1, 2) to the deck's own (70, 140).
func FuzzDeckScans(f *testing.F) {
	f.Add([]byte{0, 0, 5, 200}, uint8(2))
	f.Add([]byte{0, 0, 30, 10, 0, 10, 10, 20, 20, 10, 10, 10}, uint8(0))
	f.Add([]byte{0, 0, 10, 10, 10, 10, 10, 10, 5, 5, 10, 10}, uint8(1))
	f.Add([]byte{0, 0, 60, 2, 0, 0, 2, 60, 58, 0, 2, 60, 0, 58, 60, 2}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		lim := []int64{1, 2, 70, 140}[pick%4]
		// Grid step 1 for the degenerate limits, so that 1 nm gaps occur;
		// 10 nm for the deck's, so that gaps and widths straddle them.
		step := int64(1)
		if lim > 2 {
			step = 10
		}
		var rs []geom.Rect
		for ; len(data) >= 4 && len(rs) < 48; data = data[4:] {
			x, y := (int64(data[0]%64)-16)*step, (int64(data[1]%64)-16)*step
			rs = append(rs, geom.R(x, y, x+int64(data[2]%24)*step, y+int64(data[3]%24)*step))
		}
		checkDeckScans(t, rs, lim)
	})
}
