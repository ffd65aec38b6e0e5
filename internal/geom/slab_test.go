package geom

import (
	"cmp"
	"slices"
)

// Legacy slab-decomposition boolean engine, retained as the
// differential-test oracle for the sweep-line engine in sweep.go: the
// plane is cut into horizontal slabs at every distinct y coordinate,
// interval arithmetic is applied per slab, and vertically compatible
// slabs are coalesced afterwards. Per-slab rescans make it
// O(n · slabs) ≈ O(n²) on dense layers, which is why the production
// path moved to the sweep — but the two implementations share almost
// no code, so agreement between them is strong evidence of
// correctness (see sweep_test.go).

// slabIntervals collects the merged x-intervals of every rect in rs
// that spans the horizontal slab [ya, yb).
func slabIntervals(rs []Rect, ya, yb int64) []interval {
	var iv []interval
	for _, r := range rs {
		if r.Empty() {
			continue
		}
		if r.Y0 <= ya && r.Y1 >= yb {
			iv = append(iv, interval{r.X0, r.X1})
		}
	}
	return mergeIntervals(iv)
}

// slabBoolOp applies a pointwise boolean operation to the regions
// covered by rect sets a and b with the legacy slab decomposition,
// returning a normalized disjoint rect set.
func slabBoolOp(a, b []Rect, op func(inA, inB bool) bool) []Rect {
	ys := make([]int64, 0, 2*(len(a)+len(b)))
	for _, r := range a {
		if !r.Empty() {
			ys = append(ys, r.Y0, r.Y1)
		}
	}
	for _, r := range b {
		if !r.Empty() {
			ys = append(ys, r.Y0, r.Y1)
		}
	}
	if len(ys) == 0 {
		return nil
	}
	slices.Sort(ys)
	ys = dedup64(ys)

	type slab struct {
		ya, yb int64
		iv     []interval
	}
	slabs := make([]slab, 0, len(ys))
	for i := 0; i+1 < len(ys); i++ {
		ya, yb := ys[i], ys[i+1]
		iv := combineIntervals(slabIntervals(a, ya, yb), slabIntervals(b, ya, yb), op)
		if len(iv) > 0 {
			slabs = append(slabs, slab{ya, yb, iv})
		}
	}

	// Vertical coalescing: merge consecutive slabs with identical
	// interval lists that abut.
	var out []Rect
	flush := func(s slab) {
		for _, v := range s.iv {
			out = append(out, Rect{v.lo, s.ya, v.hi, s.yb})
		}
	}
	var cur slab
	have := false
	for _, s := range slabs {
		if have && cur.yb == s.ya && sameIntervals(cur.iv, s.iv) {
			cur.yb = s.yb
			continue
		}
		if have {
			flush(cur)
		}
		cur, have = s, true
	}
	if have {
		flush(cur)
	}
	slices.SortFunc(out, Rect.Compare)
	return out
}

// Legacy entry points, one per boolean op, kept unexported for the
// differential property tests.

func slabUnion(a, b []Rect) []Rect {
	return slabBoolOp(a, b, func(x, y bool) bool { return x || y })
}

func slabIntersect(a, b []Rect) []Rect {
	return slabBoolOp(a, b, func(x, y bool) bool { return x && y })
}

func slabSubtract(a, b []Rect) []Rect {
	return slabBoolOp(a, b, func(x, y bool) bool { return x && !y })
}

func slabNormalize(rs []Rect) []Rect {
	return slabUnion(rs, nil)
}

// Interval arithmetic of the oracles (this one and the boundary-edge
// oracle in edge_oracle_test.go); production code merges and combines
// intervals inside the sweep.

// dedup64 drops repeats from a sorted coordinate list in place.
func dedup64(xs []int64) []int64 {
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// mergeIntervals merges overlapping or touching intervals in place and
// returns the compacted slice. Input already sorted by lo — the only
// form the scanline and slab paths produce — is detected with a linear
// scan and skips the sort entirely, mirroring the IsNormal fast path
// on rect sets.
func mergeIntervals(iv []interval) []interval {
	if len(iv) <= 1 {
		return iv
	}
	sorted := true
	for i := 1; i < len(iv); i++ {
		if iv[i].lo < iv[i-1].lo {
			sorted = false
			break
		}
	}
	if !sorted {
		slices.SortFunc(iv, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	}
	out := iv[:1]
	for _, v := range iv[1:] {
		last := &out[len(out)-1]
		if v.lo <= last.hi {
			if v.hi > last.hi {
				last.hi = v.hi
			}
		} else {
			out = append(out, v)
		}
	}
	return out
}

// combineIntervals applies the boolean op to two merged interval lists
// and returns the merged result.
func combineIntervals(a, b []interval, op func(inA, inB bool) bool) []interval {
	// Gather elementary x coordinates.
	xs := make([]int64, 0, 2*(len(a)+len(b)))
	for _, v := range a {
		xs = append(xs, v.lo, v.hi)
	}
	for _, v := range b {
		xs = append(xs, v.lo, v.hi)
	}
	if len(xs) == 0 {
		return nil
	}
	slices.Sort(xs)
	xs = dedup64(xs)

	contains := func(iv []interval, x int64) bool {
		// binary search for the interval with lo <= x < hi
		lo, hi := 0, len(iv)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if iv[mid].hi > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo < len(iv) && iv[lo].lo <= x
	}

	var out []interval
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		if op(contains(a, x0), contains(b, x0)) {
			if n := len(out); n > 0 && out[n-1].hi == x0 {
				out[n-1].hi = x1
			} else {
				out = append(out, interval{x0, x1})
			}
		}
	}
	return out
}
