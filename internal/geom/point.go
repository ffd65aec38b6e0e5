// Package geom implements the integer-nanometre geometry kernel used by
// every layer of the DFM stack: points, axis-aligned rectangles,
// rectilinear polygons, boolean operations on rectangle sets, edge
// extraction, and the orientation transforms needed for cell placement.
//
// All coordinates are int64 database units (1 unit = 1 nm). Rectangle
// boolean operations produce disjoint, canonically ordered rectangle
// sets, which downstream packages (DRC, critical-area analysis, litho
// rasterization) rely on.
package geom

import "fmt"

// Point is a location in the layout plane, in integer nanometres.
type Point struct {
	X, Y int64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y int64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// ChebyshevDist returns max(|dx|, |dy|), the square-bloat interaction
// distance used by window-based pattern extraction.
func (p Point) ChebyshevDist(q Point) int64 {
	dx, dy := abs64(p.X-q.X), abs64(p.Y-q.Y)
	if dx > dy {
		return dx
	}
	return dy
}

// Less orders points by (Y, X); used for canonical orderings.
func (p Point) Less(q Point) bool {
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.X < q.X
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
