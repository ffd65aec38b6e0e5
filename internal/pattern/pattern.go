// Package pattern implements 2D layout pattern extraction,
// classification, clustering, and full-chip matching — the "DRC Plus"
// methodology (Dai, Yang, Capodieci et al.): where classic design rules
// measure single dimensions, patterns capture whole 2D neighborhoods
// that print badly even though every individual rule passes.
//
// A Pattern is the window-local geometry of one layer inside a square
// window of a given radius around an anchor. Patterns have an exact
// hash, an orientation-invariant canonical hash, and a Jaccard
// similarity used for clustering. A Catalog counts pattern classes
// over one or more designs (coverage curves, KL divergence); a Matcher
// finds library patterns in new layouts.
package pattern

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Pattern is the clipped, window-local geometry around an anchor.
// Rects are normalized and expressed with the window's lower-left at
// (0,0); the window spans [0, 2*Radius] on both axes.
type Pattern struct {
	Radius int64
	Rects  []geom.Rect
}

// ExtractAt clips the layer to the window of the given radius centered
// at the anchor and returns the window-local pattern, in normal form.
func ExtractAt(l *geom.Banded, anchor geom.Point, radius int64) Pattern {
	win := geom.R(anchor.X-radius, anchor.Y-radius, anchor.X+radius, anchor.Y+radius)
	local := l.Clip(win, nil)
	d := geom.Pt(radius-anchor.X, radius-anchor.Y)
	for i, r := range local {
		local[i] = r.Translate(d)
	}
	return Pattern{Radius: radius, Rects: local}
}

// Anchors returns the canonical anchor points for pattern extraction
// over a layer: every boundary-edge endpoint (i.e. every geometry
// corner). Corners are where 2D proximity effects concentrate, which
// is why DRC Plus anchors there.
func Anchors(rs []geom.Rect) []geom.Point {
	edges := geom.BoundaryEdges(rs)
	seen := make(map[geom.Point]struct{}, 2*len(edges))
	var out []geom.Point
	for _, e := range edges {
		for _, p := range [2]geom.Point{e.P0, e.P1} {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Empty reports whether the pattern contains no geometry.
func (p Pattern) Empty() bool { return len(p.Rects) == 0 }

// Area returns the covered area inside the window.
func (p Pattern) Area() int64 { return geom.AreaOf(p.Rects) }

// orientedRects returns the pattern's normalized rects under one of the
// eight square symmetries, re-anchored to the window's lower-left.
func (p Pattern) orientedRects(o geom.Orient) []geom.Rect {
	t := geom.Transform{Orient: o}
	out := make([]geom.Rect, 0, len(p.Rects))
	for _, r := range p.Rects {
		out = append(out, t.ApplyRect(r))
	}
	out = geom.Normalize(out)
	if len(out) == 0 {
		return out
	}
	// Re-anchor: the transformed window's lower-left moves; shift so
	// the window again spans [0, 2R]^2. The window corners map among
	// (0,0),(2R,0),(0,2R),(2R,2R); the new LL is the min corner.
	w := 2 * p.Radius
	c := [4]geom.Point{
		t.Apply(geom.Pt(0, 0)), t.Apply(geom.Pt(w, 0)),
		t.Apply(geom.Pt(0, w)), t.Apply(geom.Pt(w, w)),
	}
	ll := c[0]
	for _, q := range c[1:] {
		if q.X < ll.X {
			ll.X = q.X
		}
		if q.Y < ll.Y {
			ll.Y = q.Y
		}
	}
	for i := range out {
		out[i] = out[i].Translate(geom.Pt(-ll.X, -ll.Y))
	}
	return out
}

// CanonHash returns the orientation-invariant hash: the minimum exact
// hash over the eight square symmetries. Two patterns that are
// rotations/mirrors of each other share a CanonHash.
//
// The exact hash of a rect set is FNV-64a over the radius and then each
// rect's X0 Y0 X1 Y1 of its normal form, as big-endian int64s. Normal
// form is unique, and mirroring a normal-form set within the window
// keeps it normal up to order: mirrored in y its bands come in reverse,
// mirrored in x each band's rects do. The eight symmetries are those two
// mirrors, neither or both, applied to the pattern's normal form and to
// that of its transpose, so two normal forms give all eight hashes.
func (p Pattern) CanonHash() uint64 {
	base := p.Rects
	if slices.ContainsFunc(base, func(r geom.Rect) bool { return r.X0 > r.X1 || r.Y0 > r.Y1 }) {
		// An inside-out rect covers what its corners span, as
		// geom.Transform.ApplyRect reads it.
		base = make([]geom.Rect, len(p.Rects))
		for i, r := range p.Rects {
			base[i] = geom.R(r.X0, r.Y0, r.X1, r.Y1)
		}
	}
	base = geom.Normalize(base)
	tr := make([]geom.Rect, len(base))
	for i, r := range base {
		tr[i] = geom.Rect{X0: r.Y0, Y0: r.X0, X1: r.Y1, Y1: r.X1}
	}
	// A mirror maps the window [0, w] onto itself as v -> hi - v; the
	// identity keeps it where it was moved, v -> v - lo (both hold for a
	// negative radius, whose window is [w, 0]).
	w := 2 * p.Radius
	lo, hi := min(0, w), max(0, w)
	best := ^uint64(0)
	for _, rs := range [2][]geom.Rect{base, geom.Normalize(tr)} {
		for m := 0; m < 4; m++ {
			if h := orientedHash(p.Radius, rs, m&1 != 0, m&2 != 0, lo, hi); h < best {
				best = h
			}
		}
	}
	return best
}

// FNV-64a, as hash/fnv computes it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvInt feeds v to the FNV-64a state h as eight big-endian bytes.
func fnvInt(h uint64, v int64) uint64 {
	u := uint64(v)
	h = (h ^ u>>56) * fnvPrime
	h = (h ^ u>>48&0xff) * fnvPrime
	h = (h ^ u>>40&0xff) * fnvPrime
	h = (h ^ u>>32&0xff) * fnvPrime
	h = (h ^ u>>24&0xff) * fnvPrime
	h = (h ^ u>>16&0xff) * fnvPrime
	h = (h ^ u>>8&0xff) * fnvPrime
	return (h ^ u&0xff) * fnvPrime
}

// rectHash feeds r to h as mirrored in x (mx) and in y (my) within the
// window [lo, hi]².
func rectHash(h uint64, r geom.Rect, mx, my bool, lo, hi int64) uint64 {
	x0, x1, y0, y1 := r.X0-lo, r.X1-lo, r.Y0-lo, r.Y1-lo
	if mx {
		x0, x1 = hi-r.X1, hi-r.X0
	}
	if my {
		y0, y1 = hi-r.Y1, hi-r.Y0
	}
	return fnvInt(fnvInt(fnvInt(fnvInt(h, x0), y0), x1), y1)
}

// orientedHash is the exact hash of the normal-form set rs mirrored in x
// (mx) and in y (my) within the window [lo, hi]²: it visits rs in the
// mirrored set's normal-form order, bands reversed under my and each
// band's rects reversed under mx.
func orientedHash(radius int64, rs []geom.Rect, mx, my bool, lo, hi int64) uint64 {
	h := fnvInt(fnvOffset, radius)
	n := len(rs)
	switch {
	case !mx && !my:
		for _, r := range rs {
			h = rectHash(h, r, mx, my, lo, hi)
		}
	case mx && my:
		for i := n - 1; i >= 0; i-- {
			h = rectHash(h, rs[i], mx, my, lo, hi)
		}
	case mx: // bands in order, each band's rects reversed
		for s := 0; s < n; {
			e := s + 1
			for e < n && rs[e].Y0 == rs[s].Y0 {
				e++
			}
			for i := e - 1; i >= s; i-- {
				h = rectHash(h, rs[i], mx, my, lo, hi)
			}
			s = e
		}
	default: // my: bands reversed, each band's rects in order
		for e := n; e > 0; {
			s := e - 1
			for s > 0 && rs[s-1].Y0 == rs[e-1].Y0 {
				s--
			}
			for i := s; i < e; i++ {
				h = rectHash(h, rs[i], mx, my, lo, hi)
			}
			e = s
		}
	}
	return h
}

// Jaccard returns the area-overlap similarity of two same-radius
// patterns: |A n B| / |A u B| in [0, 1]. Patterns of different radii
// have similarity 0; two empty patterns have similarity 1.
func Jaccard(a, b Pattern) float64 {
	if a.Radius != b.Radius {
		return 0
	}
	// Area-only sweeps: neither the intersection nor the union
	// geometry is materialized, which matters because clustering calls
	// this for every candidate pair.
	inter := geom.IntersectArea(a.Rects, b.Rects)
	union := geom.UnionArea(a.Rects, b.Rects)
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// JaccardOriented returns the maximum Jaccard similarity over the
// eight orientations of b — the metric used when clustering hotspots
// whose cause is orientation-independent.
func JaccardOriented(a, b Pattern) float64 {
	if a.Radius != b.Radius {
		return 0
	}
	best := 0.0
	for o := geom.R0; o <= geom.MY90; o++ {
		ob := Pattern{Radius: b.Radius, Rects: b.orientedRects(o)}
		if s := Jaccard(a, ob); s > best {
			best = s
		}
	}
	return best
}

// String implements fmt.Stringer with a compact summary.
func (p Pattern) String() string {
	return fmt.Sprintf("pattern(r=%d, %d rects, area=%d)", p.Radius, len(p.Rects), p.Area())
}
