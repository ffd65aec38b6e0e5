package drc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/tech"
)

// candidate is a violation marker awaiting dedup. The marker is the
// box between the two offenders, so it carries the measurement too: a
// facing pair of horizontal edges (axis 0) is its height apart, a pair
// of vertical ones (axis 1) its width, and two corners are its width
// and height apart.
type candidate struct {
	m    geom.Rect
	axis uint8
}

// dist is the distance between the facing edges of a dimension scan's
// candidate.
func (c candidate) dist() int64 {
	if c.axis == 0 {
		return c.m.Height()
	}
	return c.m.Width()
}

// dedupCandidates sorts candidates into deterministic order and drops
// duplicate markers in place — the same facing pair is often reachable
// from several edges, and the sorted-slice dedup replaces a per-scan
// map[geom.Rect]bool that allocated on every check. One marker can
// carry two measurements: an island under the limit both ways is
// bounded by a horizontal pair and by a vertical pair with the same
// box between them. The order is total (candidates that compare equal
// are identical), so which of the two survives does not depend on the
// order the scan met the edges in: the horizontal pair.
func dedupCandidates(cs []candidate) []candidate {
	slices.SortFunc(cs, func(a, b candidate) int {
		return cmp.Or(a.m.Compare(b.m), cmp.Compare(a.axis, b.axis))
	})
	return slices.CompactFunc(cs, func(a, b candidate) bool { return a.m == b.m })
}

// Edge-based dimensional checks. Width and spacing are both "facing
// edge pair" scans: a bottom edge (interior above) facing a top edge
// (interior below) bounds interior material between them (a width
// measurement); the reversed pair bounds exterior space (a spacing
// measurement). A candidate pair only violates if the region strictly
// between the edges is entirely interior (width) or entirely exterior
// (spacing) — that area test suppresses false pairs across holes or
// intervening shapes. The same scan runs transposed for the horizontal
// dimension.

// MinWidth flags interior dimensions below W.
type MinWidth struct {
	Layer tech.Layer
	W     int64
}

// Name implements Rule.
func (r MinWidth) Name() string { return fmt.Sprintf("%s.width.%d", r.Layer, r.W) }

// Check implements Rule.
func (r MinWidth) Check(ctx *Context) []Violation {
	name := r.Name()
	return dimensionScan(ctx.layer(r.Layer), r.W, true, func(m geom.Rect, d int64) Violation {
		return Violation{
			Rule:   name,
			Layer:  r.Layer,
			Marker: m,
			Detail: fmt.Sprintf("width %d < %d", d, r.W),
		}
	})
}

// MinSpace flags exterior gaps below S, including corner-to-corner
// gaps measured euclidean.
type MinSpace struct {
	Layer tech.Layer
	S     int64
}

// Name implements Rule.
func (r MinSpace) Name() string { return fmt.Sprintf("%s.space.%d", r.Layer, r.S) }

// Check implements Rule.
func (r MinSpace) Check(ctx *Context) []Violation {
	name := r.Name()
	ly := ctx.layer(r.Layer)
	vs := dimensionScan(ly, r.S, false, func(m geom.Rect, d int64) Violation {
		return Violation{
			Rule:   name,
			Layer:  r.Layer,
			Marker: m,
			Detail: fmt.Sprintf("space %d < %d", d, r.S),
		}
	})
	vs = append(vs, cornerScan(ly, r.S, name, r.Layer)...)
	return vs
}

// dimensionScan finds facing-edge pairs closer than lim. interior
// selects width (true) or spacing (false) semantics.
func dimensionScan(ly *preparedLayer, lim int64, interior bool, mk func(geom.Rect, int64) Violation) []Violation {
	if len(ly.rects) == 0 {
		return nil
	}
	edges, ix := ly.boundary()

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
		if search.Empty() {
			// lim of 1: nothing can be closer.
			continue
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

// cornerScan finds pairs of convex corners of distinct regions whose
// euclidean separation is below s (the diagonal-spacing case the edge
// scan cannot see).
func cornerScan(ly *preparedLayer, s int64, rule string, layer tech.Layer) []Violation {
	var cands []candidate
	for i, a := range ly.rects {
		ly.ix.QueryFunc(a.Bloat(s), func(id int, b geom.Rect) bool {
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
			if ly.clipArea(marker) != 0 {
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

// ViaSize requires via cuts to be exactly Size x Size.
type ViaSize struct {
	Layer tech.Layer
	Size  int64
}

// Name implements Rule.
func (r ViaSize) Name() string { return fmt.Sprintf("%s.size.%d", r.Layer, r.Size) }

// Check implements Rule.
func (r ViaSize) Check(ctx *Context) []Violation {
	name := r.Name()
	var out []Violation
	// Use the raw shapes: size is a per-cut property that vanishes
	// after normalization merges overlapping cuts.
	for _, s := range ctx.Shapes {
		if s.Layer != r.Layer {
			continue
		}
		if s.R.Width() != r.Size || s.R.Height() != r.Size {
			out = append(out, Violation{
				Rule:   name,
				Layer:  r.Layer,
				Marker: s.R,
				Detail: fmt.Sprintf("cut %dx%d != %dx%d", s.R.Width(), s.R.Height(), r.Size, r.Size),
			})
		}
	}
	return out
}
