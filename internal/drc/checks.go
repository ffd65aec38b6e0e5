package drc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/obs"
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
	var out []Violation
	for _, c := range dedupCandidates(facingPairs(ly, lim, interior)) {
		out = append(out, mk(c.m, c.dist()))
	}
	return out
}

// facingPairs returns one candidate per pair of facing edges less than
// lim apart whose space between passes the validity test, before dedup.
//
// Each pair is found from its lower (left) member, so it is reported
// once: for width a bottom edge (interior above) meets the top edges
// above it, for spacing a top edge meets the bottom edges above it
// across a gap, and likewise by x. Both sides are sorted by line and on
// a line by lo, and a line's edges are disjoint, so hi is sorted there
// too: an edge's partners on one line are the run that a binary search
// for the first hi past its lo begins, and the lines to search are
// those from the first past its own up to lim away.
func facingPairs(ly *preparedLayer, lim int64, interior bool) []candidate {
	if len(ly.Rects()) == 0 {
		return nil
	}
	sides := ly.boundary()
	var cands []candidate
	found := 0
	for axis, pair := range [2][2]geom.Side{{geom.Above, geom.Below}, {geom.Right, geom.Left}} {
		scan, face := sides[pair[0]], sides[pair[1]]
		if !interior {
			scan, face = face, scan
		}
		first := 0 // of face on a line past e's; scan is sorted by line too
		for _, e := range scan {
			first = after(face, first, e.At, math.MaxInt64)
			for k := first; k < len(face) && face[k].At-e.At < lim; {
				at := face[k].At
				for k = after(face, k, at, e.Lo); k < len(face) && face[k].At == at && face[k].Lo < e.Hi; k++ {
					lo, hi := max(e.Lo, face[k].Lo), min(e.Hi, face[k].Hi)
					m := geom.Rect{X0: lo, Y0: e.At, X1: hi, Y1: at}
					if axis == 1 {
						m = geom.Rect{X0: e.At, Y0: lo, X1: at, Y1: hi}
					}
					found++
					// Validity: space between must be all-interior (width) or
					// all-exterior (spacing).
					if cov := ly.ClipArea(m); (interior && cov != m.Area()) || (!interior && cov != 0) {
						continue
					}
					cands = append(cands, candidate{m: m, axis: uint8(axis)})
				}
				k = after(face, k, at, math.MaxInt64)
			}
		}
	}
	cFacingFound.Add(int64(found))
	cFacingKept.Add(int64(len(cands)))
	return cands
}

// after returns the first index from i on of an edge of s past line at,
// or on it and ending past lo: (at, hi) is sorted along a side, so this
// is a binary search. With lo = math.MaxInt64 it is the first edge past
// the line.
func after(s []geom.Seg, i int, at, lo int64) int {
	j := len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].At < at || (s[h].At == at && s[h].Hi <= lo) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// How many facing pairs the dimension scans found less than their limit
// apart, and how many of those passed the validity test.
var (
	cFacingFound = obs.C("drc.facing.pairs.found")
	cFacingKept  = obs.C("drc.facing.pairs.kept")
)

// cornerScan finds pairs of convex corners of distinct regions whose
// euclidean separation is below s (the diagonal-spacing case the edge
// scan cannot see).
func cornerScan(ly *preparedLayer, s int64, rule string, layer tech.Layer) []Violation {
	var cands []candidate
	for i, a := range ly.Rects() {
		ly.Near(a.Bloat(s), func(id int, b geom.Rect) {
			if id <= i {
				return
			}
			gx, gy := a.GapX(b), a.GapY(b)
			if gx <= 0 || gy <= 0 {
				return // handled by the edge scan (or same region)
			}
			if gx*gx+gy*gy >= s*s {
				return
			}
			// Marker: the diagonal gap box between the two rects.
			marker := geom.R(
				min(a.X1, b.X1), min(a.Y1, b.Y1),
				max(a.X0, b.X0), max(a.Y0, b.Y0),
			)
			// Only a violation if the gap box is truly empty (not part
			// of either region via other rects) and the corners belong
			// to different connected regions.
			if ly.ClipArea(marker) != 0 {
				return
			}
			cands = append(cands, candidate{m: marker})
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
