package geom

// Boolean algebra on sets of axis-aligned rectangles. The production
// engine is the single-pass sweep line in sweep.go; the legacy slab
// decomposition survives in slab_test.go as the differential-test oracle.
// All operations return *disjoint* rectangles in canonical order
// (sorted by Y0, then X0), the normal form assumed throughout the DFM
// stack.

// interval is a half-open x range [lo, hi).
type interval struct{ lo, hi int64 }

func sameIntervals(a, b []interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Union returns the region covered by a or b as disjoint rects.
func Union(a, b []Rect) []Rect {
	return bands(opUnion, a, b)
}

// Normalize converts an arbitrary (possibly overlapping) rect list into
// the canonical disjoint form. Input that is already canonical (the
// overwhelmingly common case in the simulation and OPC hot loops,
// which re-normalize the same geometry every iteration) is detected
// with a zero-allocation linear scan and returned as-is — callers must
// treat the result as immutable, as they would the input.
func Normalize(rs []Rect) []Rect {
	if IsNormal(rs) {
		return rs
	}
	return bands(opCovered, rs)
}

// IsNormal reports whether rs is exactly in the canonical form the
// boolean ops produce: no empty rects; rects grouped into y-bands of
// identical [Y0, Y1) sorted by Y0; bands pairwise y-disjoint; within a
// band, x-sorted with strictly positive gaps (touching rects would
// have been merged); and no two abutting bands with identical interval
// lists (they would have been coalesced vertically).
func IsNormal(rs []Rect) bool {
	pb0, pbn := -1, 0 // previous band start index and length
	cb0 := 0          // current band start index
	for i, r := range rs {
		if r.Empty() {
			return false
		}
		if i == 0 {
			continue
		}
		p := rs[i-1]
		if r.Y0 == p.Y0 && r.Y1 == p.Y1 {
			if r.X0 <= p.X1 {
				return false
			}
			continue
		}
		if r.Y0 < p.Y1 {
			return false
		}
		if pb0 >= 0 && rs[pb0].Y1 == rs[cb0].Y0 && sameXSpans(rs[pb0:pb0+pbn], rs[cb0:i]) {
			return false
		}
		pb0, pbn = cb0, i-cb0
		cb0 = i
	}
	if pb0 >= 0 && rs[pb0].Y1 == rs[cb0].Y0 && sameXSpans(rs[pb0:pb0+pbn], rs[cb0:]) {
		return false
	}
	return true
}

func sameXSpans(a, b []Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].X0 != b[i].X0 || a[i].X1 != b[i].X1 {
			return false
		}
	}
	return true
}

// Intersect returns the region covered by both a and b.
func Intersect(a, b []Rect) []Rect {
	return bands(opIntersect, a, b)
}

// Subtract returns the region covered by a but not b.
func Subtract(a, b []Rect) []Rect {
	return bands(opSubtract, a, b)
}

// AreaOf returns the total area covered by the rect set, counting
// overlapping regions once. Normalized input is summed directly;
// overlapping input runs the area sweep, which never materializes the
// union geometry.
func AreaOf(rs []Rect) int64 {
	if IsNormal(rs) {
		var a int64
		for _, r := range rs {
			a += r.Area()
		}
		return a
	}
	return sweepArea(opCovered, rs)
}

// BBoxOf returns the bounding box of the set (empty Rect for an empty
// set).
func BBoxOf(rs []Rect) Rect {
	var bb Rect
	for _, r := range rs {
		bb = bb.Union(r)
	}
	return bb
}

// Dilate grows the region by d in all directions (Minkowski sum with a
// 2d x 2d square). Dilation distributes over union, so bloating each
// rect and re-normalizing is exact.
func Dilate(rs []Rect, d int64) []Rect {
	if d == 0 {
		return Normalize(rs)
	}
	out := make([]Rect, 0, len(rs))
	for _, r := range rs {
		if r.Empty() {
			continue
		}
		b := r.Bloat(d)
		if !b.Empty() {
			out = append(out, b)
		}
	}
	return Normalize(out)
}

// Erode shrinks the region by d in all directions: points survive only
// if the full 2d x 2d square around them lies inside the region.
// Implemented as the complement of the dilated complement within a
// frame that exceeds the region's bbox by 2d.
func Erode(rs []Rect, d int64) []Rect {
	if d == 0 {
		return Normalize(rs)
	}
	norm := Normalize(rs)
	if len(norm) == 0 {
		return nil
	}
	frame := BBoxOf(norm).Bloat(2 * d)
	comp := Subtract([]Rect{frame}, norm)
	compD := Dilate(comp, d)
	return Subtract([]Rect{frame.Bloat(-d)}, compD)
}

// Open performs morphological opening (erode then dilate): it removes
// any part of the region narrower than 2d. The difference between a
// region and its opening is exactly the sub-minimum-width area, which
// is how minimum-width DRC checks are implemented.
func Open(rs []Rect, d int64) []Rect {
	return Dilate(Erode(rs, d), d)
}

// Close performs morphological closing (dilate then erode): it fills
// any gap or notch narrower than 2d, which is how minimum-spacing DRC
// checks are implemented (closed minus original = sub-minimum gaps).
func Close(rs []Rect, d int64) []Rect {
	return Erode(Dilate(rs, d), d)
}

// CoversPoint reports whether any rect in the set covers p (boundary
// inclusive).
func CoversPoint(rs []Rect, p Point) bool {
	for _, r := range rs {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Scale multiplies every coordinate by num/den (rational scaling keeps
// the integer-nm representation exact for common shrink factors like
// 9/10). The result is re-normalized.
func Scale(rs []Rect, num, den int64) []Rect {
	if den == 0 {
		den = 1
	}
	out := make([]Rect, 0, len(rs))
	for _, r := range rs {
		out = append(out, R(r.X0*num/den, r.Y0*num/den, r.X1*num/den, r.Y1*num/den))
	}
	return Normalize(out)
}
