package geom

import (
	"cmp"
	"slices"
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
	edges := BoundaryOfNormal(Normalize(rs))
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

// BoundaryOfNormal is BoundaryEdges for input already in normal form
// (IsNormal), in the order the extraction finds the edges rather than
// sorted: the horizontal ones line by line upwards, on a line the
// bottom edges left to right and then the top edges, and after them the
// vertical ones likewise by x. For a caller that indexes or sorts the
// edges itself.
//
// Normalized rects are disjoint, so whatever crosses a coordinate
// cancels out of the coverage on its two sides: the boundary on the
// line y is the bottoms of the rects starting there minus the tops of
// those ending there, and the reverse. One pass over the rect sides
// sorted by coordinate finds every edge.
func BoundaryOfNormal(norm []Rect) []Edge {
	if len(norm) == 0 {
		return nil
	}
	lo := make([]rectSide, len(norm))
	hi := make([]rectSide, len(norm))
	for i, r := range norm {
		lo[i] = rectSide{r.Y0, r.X0, r.X1}
		hi[i] = rectSide{r.Y1, r.X0, r.X1}
	}
	// Normal form lists its rects band by band upwards and left to right
	// within a band: bottoms and tops are both in (y, x) order as found.
	edges := make([]Edge, 0, 4*len(norm))
	edges = sideEdges(edges, lo, hi, true)
	for i, r := range norm {
		lo[i] = rectSide{r.X0, r.Y0, r.Y1}
		hi[i] = rectSide{r.X1, r.Y0, r.Y1}
	}
	slices.SortFunc(lo, rectSide.compare)
	slices.SortFunc(hi, rectSide.compare)
	return sideEdges(edges, lo, hi, false)
}

// rectSide is one side of a rect: the coordinate of the line it lies
// on and its extent along that line.
type rectSide struct{ at, lo, hi int64 }

// compare orders sides by line, then by where they begin on it.
func (a rectSide) compare(b rectSide) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// sideEdges appends the boundary edges on every line that carries a
// rect side: lo holds the sides where rects begin (bottoms, or left
// sides when !horizontal), hi the sides where they end, each in compare
// order.
func sideEdges(edges []Edge, lo, hi []rectSide, horizontal bool) []Edge {
	begin, end := Above, Below
	if !horizontal {
		begin, end = Right, Left
	}
	var starts, ends []interval
	i, j := 0, 0
	for i < len(lo) || j < len(hi) {
		var at int64
		if j == len(hi) || (i < len(lo) && lo[i].at <= hi[j].at) {
			at = lo[i].at
		} else {
			at = hi[j].at
		}
		starts, ends = starts[:0], ends[:0]
		for ; i < len(lo) && lo[i].at == at; i++ {
			starts = appendMerged(starts, interval{lo[i].lo, lo[i].hi})
		}
		for ; j < len(hi) && hi[j].at == at; j++ {
			ends = appendMerged(ends, interval{hi[j].lo, hi[j].hi})
		}
		edges = appendDifference(edges, starts, ends, at, horizontal, begin)
		edges = appendDifference(edges, ends, starts, at, horizontal, end)
	}
	return edges
}

// appendDifference appends one edge per maximal run of a not covered
// by b (both merged and sorted) on the line at.
func appendDifference(edges []Edge, a, b []interval, at int64, horizontal bool, interior Side) []Edge {
	k := 0
	for _, v := range a {
		x := v.lo
		for ; k < len(b) && b[k].lo < v.hi; k++ {
			if b[k].hi <= x {
				continue
			}
			if b[k].lo > x {
				edges = append(edges, lineEdge(at, x, b[k].lo, horizontal, interior))
			}
			x = b[k].hi
			if x >= v.hi {
				break // b[k] may reach into a's next interval: keep it
			}
		}
		if x < v.hi {
			edges = append(edges, lineEdge(at, x, v.hi, horizontal, interior))
		}
	}
	return edges
}

func lineEdge(at, lo, hi int64, horizontal bool, interior Side) Edge {
	if horizontal {
		return Edge{Point{lo, at}, Point{hi, at}, interior}
	}
	return Edge{Point{at, lo}, Point{at, hi}, interior}
}

// PerimeterOf returns the total boundary length of the region.
func PerimeterOf(rs []Rect) int64 {
	var p int64
	for _, e := range BoundaryEdges(rs) {
		p += e.Length()
	}
	return p
}
