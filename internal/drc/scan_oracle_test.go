package drc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// layerCell is the bin size of the oracles' indexes. Every query the
// deck makes is a few design-rule distances across (a facing pair's
// marker, a rect bloated by a spacing, a via's enclosure box), so a
// handful of minimum pitches per bin keeps both the bins a query
// touches and the items per bin small. Measured on generated tiles
// (BenchmarkDeckTile, BenchmarkDimensionScan) when the deck still built
// these indexes: 512 lays four times the bins for a tenth more bytes on
// a sparse 48 µm tile and no resolvable speed, 2048 slows the dense comb
// and the smaller tiles by a tenth to a fifth.
const layerCell = 1024

// indexOf is an index over rs, item ids being positions in it.
func indexOf(rs []geom.Rect) *geom.Index {
	ix := geom.NewIndex(geom.BBoxOf(rs), layerCell)
	for _, r := range rs {
		ix.Insert(r)
	}
	return ix
}

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
	if len(ly.Rects()) == 0 || lim <= 1 {
		return nil
	}
	edges := geom.BoundaryEdges(ly.Rects())
	boxes := make([]geom.Rect, len(edges))
	for i, e := range edges {
		boxes[i] = geom.R(e.P0.X, e.P0.Y, e.P1.X, e.P1.Y)
	}
	ix := indexOf(boxes)

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
			cov := ly.ClipArea(marker)
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

// cornerScanOracle is cornerScan as it was before the deck walked the
// layer's bands: a query of a spatial index over the layer's rects per
// rect, the space between measured by the whole-layer area sweep. Kept
// as the differential-test reference.
func cornerScanOracle(ly *preparedLayer, s int64, rule string, layer tech.Layer) []Violation {
	ix := indexOf(ly.Rects())
	var cands []candidate
	for i, a := range ly.Rects() {
		ix.QueryFunc(a.Bloat(s), func(id int, b geom.Rect) bool {
			if id <= i {
				return true
			}
			gx, gy := a.GapX(b), a.GapY(b)
			if gx <= 0 || gy <= 0 {
				return true // handled by the edge scan (or same region)
			}
			if gx*gx+gy*gy >= s*s {
				return true
			}
			// Marker: the diagonal gap box between the two rects.
			marker := geom.R(
				min(a.X1, b.X1), min(a.Y1, b.Y1),
				max(a.X0, b.X0), max(a.Y0, b.Y0),
			)
			// Only a violation if the gap box is truly empty (not part
			// of either region via other rects) and the corners belong
			// to different connected regions.
			if geom.ClipArea(ly.Rects(), marker) != 0 {
				return true
			}
			cands = append(cands, candidate{m: marker})
			return true
		})
	}
	var out []Violation
	for _, c := range dedupCandidates(cands) {
		out = append(out, Violation{
			Rule:   rule,
			Layer:  layer,
			Marker: c.m,
			Detail: fmt.Sprintf("corner gap (%d,%d) < %d", c.m.Width(), c.m.Height(), s),
		})
	}
	return out
}

// minAreaOracle is MinArea.Check with each component measured by the
// union sweep. The components themselves are geom's, which FuzzBanded
// holds to a brute-force union-find.
func minAreaOracle(r MinArea, ctx *Context) []Violation {
	var out []Violation
	for _, comp := range geom.BandedOf(ctx.Layers[r.Layer]).Components() {
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

// checkDeckScans holds the width and spacing scans and MinArea on rs to
// their oracles at limit lim.
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
	space := MinSpace{Layer: tech.Metal1, S: lim}
	if got, want := space.Check(ctx), append(dimensionScanOracle(ly, lim, false, func(m geom.Rect, d int64) Violation {
		return Violation{Rule: space.Name(), Layer: tech.Metal1, Marker: m, Detail: fmt.Sprintf("space %d < %d", d, lim)}
	}), cornerScanOracle(ly, lim, space.Name(), tech.Metal1)...); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinSpace %d over %v\n got %v\nwant %v", lim, rs, got, want)
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
	// Two corners under the spacing, with a sliver in the gap box between.
	f.Add([]byte{24, 24, 20, 17, 56, 25, 7, 17, 48, 24, 1, 2}, uint8(3))
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
