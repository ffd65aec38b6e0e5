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
	"hash/fnv"
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

// ExtractAt clips the layer geometry to the window of the given radius
// centered at the anchor and returns the window-local pattern.
// The rect set need not be normalized.
func ExtractAt(rs []geom.Rect, anchor geom.Point, radius int64) Pattern {
	win := geom.R(anchor.X-radius, anchor.Y-radius, anchor.X+radius, anchor.Y+radius)
	clipped := geom.Intersect(rs, []geom.Rect{win})
	local := make([]geom.Rect, len(clipped))
	d := geom.Pt(radius-anchor.X, radius-anchor.Y)
	for i, r := range clipped {
		local[i] = r.Translate(d)
	}
	return Pattern{Radius: radius, Rects: local}
}

// ExtractAtIndexed is ExtractAt against a prebuilt spatial index; it
// avoids rescanning the full layer per anchor on large layouts.
func ExtractAtIndexed(ix *geom.Index, anchor geom.Point, radius int64) Pattern {
	win := geom.R(anchor.X-radius, anchor.Y-radius, anchor.X+radius, anchor.Y+radius)
	var near []geom.Rect
	ix.QueryFunc(win, func(id int, r geom.Rect) bool {
		near = append(near, r)
		return true
	})
	return ExtractAt(near, anchor, radius)
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

// serialize produces the byte form used for hashing: radius followed by
// the sorted rect coordinates.
func (p Pattern) serialize(rs []geom.Rect) []byte {
	buf := make([]byte, 0, 8+32*len(rs))
	put := func(v int64) {
		for s := 56; s >= 0; s -= 8 {
			buf = append(buf, byte(v>>uint(s)))
		}
	}
	put(p.Radius)
	for _, r := range rs {
		put(r.X0)
		put(r.Y0)
		put(r.X1)
		put(r.Y1)
	}
	return buf
}

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
func (p Pattern) CanonHash() uint64 {
	best := ^uint64(0)
	for o := geom.R0; o <= geom.MY90; o++ {
		h := fnv.New64a()
		h.Write(p.serialize(p.orientedRects(o)))
		if s := h.Sum64(); s < best {
			best = s
		}
	}
	return best
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
