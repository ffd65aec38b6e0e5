package geom

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/keysort"
)

// Edge is a boundary segment of a region, with the region's interior on
// a known side. Edges are axis-parallel; P0 -> P1 runs left-to-right for
// horizontal edges and bottom-to-top for vertical edges.
type Edge struct {
	P0, P1 Point
	// Interior tells which side of the edge the region lies on.
	Interior Side
}

// Side identifies which side of an edge the region interior occupies.
type Side uint8

// Interior side values. For a horizontal edge the interior is Above or
// Below; for a vertical edge it is Left or Right.
const (
	Below Side = iota // horizontal edge, interior below (a "top" edge)
	Above             // horizontal edge, interior above (a "bottom" edge)
	Left              // vertical edge, interior to the left (a "right" edge)
	Right             // vertical edge, interior to the right (a "left" edge)
)

func (s Side) String() string {
	switch s {
	case Below:
		return "below"
	case Above:
		return "above"
	case Left:
		return "left"
	case Right:
		return "right"
	}
	return "?"
}

// Horizontal reports whether the edge is horizontal.
func (e Edge) Horizontal() bool { return e.P0.Y == e.P1.Y }

// Length returns the edge length.
func (e Edge) Length() int64 {
	return abs64(e.P1.X-e.P0.X) + abs64(e.P1.Y-e.P0.Y)
}

// Midpoint returns the edge midpoint (truncated to integer nm).
func (e Edge) Midpoint() Point {
	return Point{(e.P0.X + e.P1.X) / 2, (e.P0.Y + e.P1.Y) / 2}
}

// OutwardNormal returns a unit vector pointing away from the interior.
func (e Edge) OutwardNormal() Point {
	switch e.Interior {
	case Below:
		return Point{0, 1}
	case Above:
		return Point{0, -1}
	case Left:
		return Point{1, 0}
	case Right:
		return Point{-1, 0}
	}
	return Point{}
}

// BoundaryEdges extracts the boundary edges of the region covered by
// rs. The input need not be normalized. Edges are maximal: collinear
// boundary runs with the same interior side are returned as single
// segments. The result is deterministic (sorted).
func BoundaryEdges(rs []Rect) []Edge {
	sides := BoundarySides(Normalize(rs))
	edges := make([]Edge, 0, len(sides[0])+len(sides[1])+len(sides[2])+len(sides[3]))
	for side, segs := range sides {
		for _, g := range segs {
			edges = append(edges, g.edge(Side(side)))
		}
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.P0.Y, b.P0.Y); c != 0 {
			return c
		}
		if c := cmp.Compare(a.P0.X, b.P0.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Interior, b.Interior)
	})
	return edges
}

// Seg is an axis-parallel segment on the line At (y for a horizontal
// one, x for a vertical one) spanning [Lo, Hi) along it.
type Seg struct{ At, Lo, Hi int64 }

// compare orders segments by line, then by where they begin on it.
func (g Seg) compare(o Seg) int {
	if c := cmp.Compare(g.At, o.At); c != 0 {
		return c
	}
	return cmp.Compare(g.Lo, o.Lo)
}

// edge is g as a boundary edge with the given interior side.
func (g Seg) edge(interior Side) Edge {
	if interior <= Above {
		return Edge{Point{g.Lo, g.At}, Point{g.Hi, g.At}, interior}
	}
	return Edge{Point{g.At, g.Lo}, Point{g.At, g.Hi}, interior}
}

// BoundarySides is the boundary of norm, which must be in normal form
// (IsNormal), split by interior side and indexed by Side: the edges
// BoundaryEdges returns, as segments, every side cut from one backing
// array of exactly their number: once its pool is warm, all a call
// allocates.
//
// A side's order is a guarantee, and package drc's facing-edge scan
// relies on it: each side is sorted by line (y, or x for Left and
// Right) and on one line by where its segments begin, and on one line
// they are disjoint.
//
// Normalized rects are disjoint, so whatever crosses a coordinate
// cancels out of the coverage on its two sides: the boundary on the
// line y is the bottoms of the rects starting there minus the tops of
// those ending there, and the reverse. One pass over the rect sides
// sorted by coordinate finds every edge: the horizontal ones line by
// line upwards, then the vertical ones likewise by x. The sides and the
// edges found live in pooled scratch.
func BoundarySides(norm []Rect) [4][]Seg {
	sides, _ := AppendBoundarySides(nil, norm)
	return sides
}

// AppendBoundarySides is BoundarySides cut from dst's storage: the four
// sides are appended to dst in Side order, and returned both as the
// sides, each capped at its length, and as dst grown, which a caller
// that extracts one boundary after another hands to the next call as
// dst[:0]. It allocates only when dst has too little room.
func AppendBoundarySides(dst []Seg, norm []Rect) (sides [4][]Seg, all []Seg) {
	if len(norm) == 0 {
		return sides, dst
	}
	sc := sidePool.Get().(*sideScratch)
	if cap(sc.lo) < len(norm) {
		sc.lo, sc.hi = make([]Seg, len(norm)), make([]Seg, len(norm))
	}
	lo, hi := sc.lo[:len(norm)], sc.hi[:len(norm)]
	for i, r := range norm {
		lo[i] = Seg{r.Y0, r.X0, r.X1}
		hi[i] = Seg{r.Y1, r.X0, r.X1}
	}
	for side := range sc.found {
		sc.found[side] = sc.found[side][:0]
	}
	// Normal form lists its rects band by band upwards and left to right
	// within a band: bottoms and tops are both in (y, x) order as found.
	sc.edges(lo, hi, Above, Below)
	verticalSides(norm, lo, hi)
	sc.edges(lo, hi, Right, Left)
	n := 0
	for _, segs := range sc.found {
		n += len(segs)
	}
	dst = slices.Grow(dst, n)
	for side, segs := range sc.found {
		at := len(dst)
		dst = append(dst, segs...)
		sides[side] = dst[at:len(dst):len(dst)]
	}
	sidePool.Put(sc)
	return sides, dst
}

// sideScratch is BoundarySides' working memory: one side per rect where
// rects begin and one where they end, the merged intervals of one line
// of each, and the edges found on each side.
type sideScratch struct {
	lo, hi       []Seg
	starts, ends []interval
	found        [4][]Seg
}

var sidePool = sync.Pool{New: func() any { return new(sideScratch) }}

// verticalSides fills lo with the left sides of norm and hi with the
// right ones, each in compare order. It sorts integers, not sides: a
// side's key is its x − the least X0 above its rect's index, and the
// sides are gathered in key order. Normal form lists its rects by Y0,
// band by band upwards, so on one line the index orders the sides as
// their Y0 does; two sides never tie on (x, Y0), as their rects would
// overlap. So the keys order the sides as compare does. A layer too
// wide to pack in 64 bits keeps the comparator sort.
func verticalSides(norm []Rect, lo, hi []Seg) {
	minX, maxX := norm[0].X0, norm[0].X1
	for _, r := range norm[1:] {
		minX, maxX = min(minX, r.X0), max(maxX, r.X1)
	}
	idxBits := uint(bits.Len(uint(len(norm) - 1)))
	top := idxBits + uint(bits.Len64(uint64(maxX)-uint64(minX)))
	if top > 64 {
		for i, r := range norm {
			lo[i] = Seg{r.X0, r.Y0, r.Y1}
			hi[i] = Seg{r.X1, r.Y0, r.Y1}
		}
		slices.SortFunc(lo, Seg.compare)
		slices.SortFunc(hi, Seg.compare)
		return
	}
	mask := uint64(1)<<idxBits - 1
	sc := keysort.Get()
	for right, dst := range [2][]Seg{lo, hi} {
		keys := sc.Keys(len(norm))
		for i, r := range norm {
			x := r.X0
			if right == 1 {
				x = r.X1
			}
			keys[i] = (uint64(x)-uint64(minX))<<idxBits | uint64(i)
		}
		for j, k := range sc.Sort(keys, idxBits, top) {
			r := norm[k&mask]
			dst[j] = Seg{int64(k>>idxBits + uint64(minX)), r.Y0, r.Y1}
		}
	}
	keysort.Put(sc)
}

// edges appends the boundary edges on every line that carries a rect
// side to sc.found: lo holds the sides where rects begin (bottoms, or
// left sides), hi the sides where they end, each in compare order. An
// edge where coverage begins has its interior on the begin side, one
// where it ends on the end side.
func (sc *sideScratch) edges(lo, hi []Seg, begin, end Side) {
	starts, ends := sc.starts, sc.ends
	i, j := 0, 0
	for i < len(lo) || j < len(hi) {
		var at int64
		if j == len(hi) || (i < len(lo) && lo[i].At <= hi[j].At) {
			at = lo[i].At
		} else {
			at = hi[j].At
		}
		starts, ends = starts[:0], ends[:0]
		for ; i < len(lo) && lo[i].At == at; i++ {
			starts = appendMerged(starts, interval{lo[i].Lo, lo[i].Hi})
		}
		for ; j < len(hi) && hi[j].At == at; j++ {
			ends = appendMerged(ends, interval{hi[j].Lo, hi[j].Hi})
		}
		sc.found[begin] = appendDifference(sc.found[begin], starts, ends, at)
		sc.found[end] = appendDifference(sc.found[end], ends, starts, at)
	}
	sc.starts, sc.ends = starts, ends
}

// appendDifference appends one segment per maximal run of a not
// covered by b (both merged and sorted) on the line at.
func appendDifference(segs []Seg, a, b []interval, at int64) []Seg {
	k := 0
	for _, v := range a {
		x := v.lo
		for ; k < len(b) && b[k].lo < v.hi; k++ {
			if b[k].hi <= x {
				continue
			}
			if b[k].lo > x {
				segs = append(segs, Seg{at, x, b[k].lo})
			}
			x = b[k].hi
			if x >= v.hi {
				break // b[k] may reach into a's next interval: keep it
			}
		}
		if x < v.hi {
			segs = append(segs, Seg{at, x, v.hi})
		}
	}
	return segs
}

// PerimeterOf returns the total boundary length of the region.
func PerimeterOf(rs []Rect) int64 {
	var p int64
	for _, e := range BoundaryEdges(rs) {
		p += e.Length()
	}
	return p
}
