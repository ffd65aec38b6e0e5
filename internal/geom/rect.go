package geom

import (
	"cmp"
	"fmt"
)

// Rect is an axis-aligned rectangle in integer nanometres.
// A Rect is canonical when X0 <= X1 and Y0 <= Y1; a canonical Rect with
// zero width or height is degenerate and treated as empty by area-based
// operations, but its edges still participate in abutment queries.
type Rect struct {
	X0, Y0, X1, Y1 int64
}

// R constructs a canonical Rect from two corner coordinates given in any
// order.
func R(x0, y0, x1, y1 int64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// Width returns the horizontal extent.
func (r Rect) Width() int64 { return r.X1 - r.X0 }

// Height returns the vertical extent.
func (r Rect) Height() int64 { return r.Y1 - r.Y0 }

// Area returns Width*Height.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Empty reports whether the rectangle encloses no area.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Center returns the midpoint, truncated to integer nm.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// LL returns the lower-left corner.
func (r Rect) LL() Point { return Point{r.X0, r.Y0} }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// ContainsRect reports whether s lies entirely within r (boundaries may
// coincide).
func (r Rect) ContainsRect(s Rect) bool {
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Overlaps reports whether r and s share interior area (touching edges
// do not count).
func (r Rect) Overlaps(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Intersect returns the overlapping region of r and s. The result is
// empty (and possibly non-canonical) when they do not overlap; callers
// should test Empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		X0: max(r.X0, s.X0),
		Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1),
		Y1: min(r.Y1, s.Y1),
	}
}

// Union returns the bounding box of r and s. Empty operands are
// ignored so that Union can fold over a sequence starting from an
// empty accumulator.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X0: min(r.X0, s.X0),
		Y0: min(r.Y0, s.Y0),
		X1: max(r.X1, s.X1),
		Y1: max(r.Y1, s.Y1),
	}
}

// Bloat grows the rectangle by d on every side (negative d shrinks; a
// rectangle shrunk past its midline becomes empty).
func (r Rect) Bloat(d int64) Rect {
	return Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
}

// BloatXY grows by dx horizontally and dy vertically.
func (r Rect) BloatXY(dx, dy int64) Rect {
	return Rect{r.X0 - dx, r.Y0 - dy, r.X1 + dx, r.Y1 + dy}
}

// Translate moves the rectangle by the vector p.
func (r Rect) Translate(p Point) Rect {
	return Rect{r.X0 + p.X, r.Y0 + p.Y, r.X1 + p.X, r.Y1 + p.Y}
}

// Distance returns the minimum axis-aligned separation between two
// non-overlapping rectangles: the Euclidean gap is sqrt(dx^2+dy^2) but
// design rules measure dx/dy independently, so Distance returns the
// larger of the two per-axis gaps when the rects are diagonal to each
// other and the single-axis gap otherwise. Overlapping rects have
// distance 0.
func (r Rect) Distance(s Rect) int64 {
	dx := max(0, max(s.X0-r.X1, r.X0-s.X1))
	dy := max(0, max(s.Y0-r.Y1, r.Y0-s.Y1))
	return max(dx, dy)
}

// GapX returns the horizontal gap between r and s (0 if they overlap in X).
func (r Rect) GapX(s Rect) int64 { return max(0, max(s.X0-r.X1, r.X0-s.X1)) }

// GapY returns the vertical gap between r and s (0 if they overlap in Y).
func (r Rect) GapY(s Rect) int64 { return max(0, max(s.Y0-r.Y1, r.Y0-s.Y1)) }

// MinDim returns the smaller of width and height; the quantity checked
// by minimum-width design rules.
func (r Rect) MinDim() int64 { return min(r.Width(), r.Height()) }

// Compare orders rectangles by (Y0, X0, Y1, X1), the order of the
// canonical rect-set form; it returns 0 only for identical rectangles.
func (r Rect) Compare(s Rect) int {
	if c := cmp.Compare(r.Y0, s.Y0); c != 0 {
		return c
	}
	if c := cmp.Compare(r.X0, s.X0); c != 0 {
		return c
	}
	if c := cmp.Compare(r.Y1, s.Y1); c != 0 {
		return c
	}
	return cmp.Compare(r.X1, s.X1)
}

// Canonical reports whether the rectangle is in canonical corner order.
func (r Rect) Canonical() bool { return r.X0 <= r.X1 && r.Y0 <= r.Y1 }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}
