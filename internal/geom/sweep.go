package geom

import (
	"cmp"
	"slices"
	"sync"
)

// This file implements the boolean core as a single-pass sweep line,
// the Bentley–Ottmann-style formulation production layout engines use:
// y-events (rect tops and bottoms) are sorted once, the scanline's
// active x-intervals are maintained incrementally as rects enter and
// leave, and coalesced output rects are emitted directly whenever the
// merged scanline changes. Each operation is O((n + k) log n) in the
// event count n and output size k for bounded scanline occupancy,
// against the O(n · slabs) per-slab rescan of the legacy slab engine,
// which is compiled only into the tests (slab_test.go) as the
// differential oracle.
//
// All scratch state (event queue, active lists, merged-interval
// buffers) lives in a pooled sweeper so steady-state operations
// allocate only their output slice.

// opKind selects the pointwise boolean combine. The truth table is
// indexed by (inA<<1 | inB).
type opKind uint8

const (
	opUnion opKind = iota
	opIntersect
	opSubtract
)

var opTables = [...][4]bool{
	opUnion:     {false, true, true, true},
	opIntersect: {false, false, false, true},
	opSubtract:  {false, false, true, false},
}

// sweepEvent is one scanline transition: at y, the x-interval
// [x0, x1) of operand set enters (enter=true) or leaves the scanline.
type sweepEvent struct {
	y      int64
	x0, x1 int64
	set    uint8
	enter  bool
}

// sweeper bundles the reusable scratch of one sweep operation.
type sweeper struct {
	events []sweepEvent
	act    [2][]interval // active intervals per operand, sorted by (lo, hi)
	merged [2][]interval // merged coverage of each active list
	rowA   []interval    // combined intervals of the open output band
	rowB   []interval    // combined intervals of the current segment
	width  int           // widest active set seen (instrumentation)
}

var sweeperPool = sync.Pool{New: func() any { return nil }}

func getSweeper() *sweeper {
	if v := sweeperPool.Get(); v != nil {
		cSweepPoolReuse.Inc()
		return v.(*sweeper)
	}
	cSweepPoolAlloc.Inc()
	return new(sweeper)
}

func (s *sweeper) release() {
	s.events = s.events[:0]
	s.act[0], s.act[1] = s.act[0][:0], s.act[1][:0]
	s.merged[0], s.merged[1] = s.merged[0][:0], s.merged[1][:0]
	s.rowA, s.rowB = s.rowA[:0], s.rowB[:0]
	sweeperPool.Put(s)
}

// load fills the event queue from the operands and sorts it by y.
// Returns false when there is nothing to sweep.
func (s *sweeper) load(a, b []Rect) bool {
	ev := s.events[:0]
	for set, rs := range [2][]Rect{a, b} {
		for _, r := range rs {
			if r.Empty() {
				continue
			}
			ev = append(ev,
				sweepEvent{y: r.Y0, x0: r.X0, x1: r.X1, set: uint8(set), enter: true},
				sweepEvent{y: r.Y1, x0: r.X0, x1: r.X1, set: uint8(set), enter: false},
			)
		}
	}
	s.events = ev
	if len(ev) == 0 {
		return false
	}
	slices.SortFunc(ev, func(p, q sweepEvent) int { return cmp.Compare(p.y, q.y) })
	s.width = 0
	cSweepOps.Inc()
	cSweepEvents.Add(int64(len(ev)))
	return true
}

// apply folds one event into its active list, keeping the list sorted
// by (lo, hi). Insertion position is found by binary search; removal
// always finds an exact match from a prior insertion.
func (s *sweeper) apply(e sweepEvent) {
	act := s.act[e.set]
	v := interval{e.x0, e.x1}
	pos, _ := slices.BinarySearchFunc(act, v, func(p, q interval) int {
		if c := cmp.Compare(p.lo, q.lo); c != 0 {
			return c
		}
		return cmp.Compare(p.hi, q.hi)
	})
	if e.enter {
		act = append(act, interval{})
		copy(act[pos+1:], act[pos:])
		act[pos] = v
		if len(act) > s.width {
			s.width = len(act)
		}
	} else {
		copy(act[pos:], act[pos+1:])
		act = act[:len(act)-1]
	}
	s.act[e.set] = act
}

// mergeActive rewrites dst with the merged coverage of the active list
// (already sorted by lo, so a single linear pass suffices).
func mergeActive(act []interval, dst []interval) []interval {
	dst = dst[:0]
	for _, v := range act {
		dst = appendMerged(dst, v)
	}
	return dst
}

// appendMerged appends v to a list of disjoint intervals sorted by lo,
// extending the last one when v touches or overlaps it.
func appendMerged(iv []interval, v interval) []interval {
	if n := len(iv); n > 0 && v.lo <= iv[n-1].hi {
		iv[n-1].hi = max(iv[n-1].hi, v.hi)
		return iv
	}
	return append(iv, v)
}

// combineMerged rewrites dst with the intervals where the boolean op
// holds, given the merged (disjoint, gap-separated, sorted) coverage
// of each operand — a two-pointer walk over the x boundaries.
func combineMerged(a, b []interval, table *[4]bool, dst []interval) []interval {
	dst = dst[:0]
	i, j := 0, 0
	inA, inB := false, false
	var prev int64
	first := true
	for i < len(a) || j < len(b) {
		// The next x boundary of either operand.
		var nx int64
		have := false
		if i < len(a) {
			if inA {
				nx = a[i].hi
			} else {
				nx = a[i].lo
			}
			have = true
		}
		if j < len(b) {
			c := b[j].lo
			if inB {
				c = b[j].hi
			}
			if !have || c < nx {
				nx = c
			}
		}
		// Segment [prev, nx) carried the state entered at prev.
		if !first && nx > prev && table[btoi(inA)<<1|btoi(inB)] {
			if n := len(dst); n > 0 && dst[n-1].hi == prev {
				dst[n-1].hi = nx
			} else {
				dst = append(dst, interval{prev, nx})
			}
		}
		// Toggle whichever operands have a boundary at nx.
		if i < len(a) {
			if inA && a[i].hi == nx {
				inA = false
				i++
			} else if !inA && a[i].lo == nx {
				inA = true
			}
		}
		if j < len(b) {
			if inB && b[j].hi == nx {
				inB = false
				j++
			} else if !inB && b[j].lo == nx {
				inB = true
			}
		}
		prev, first = nx, false
	}
	return dst
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sweepBoolOp runs the sweep for one binary boolean op and returns the
// normalized disjoint rect set (canonical order, no final sort needed:
// bands are emitted bottom-up and intervals left-to-right).
func sweepBoolOp(a, b []Rect, op opKind) []Rect {
	s := getSweeper()
	defer s.release()
	if !s.load(a, b) {
		return nil
	}
	table := &opTables[op]

	var out []Rect
	row := s.rowA[:0] // intervals of the open band
	var bandY0 int64  // where the open band started
	var lastY int64   // y of the previous event group
	started := false  // any segment processed yet
	flush := func(y1 int64) {
		for _, v := range row {
			out = append(out, Rect{v.lo, bandY0, v.hi, y1})
		}
	}
	ev := s.events
	for k := 0; k < len(ev); {
		y := ev[k].y
		if started && y > lastY {
			// Segment [lastY, y): combine the current scanline and
			// extend or break the open band.
			s.merged[0] = mergeActive(s.act[0], s.merged[0])
			s.merged[1] = mergeActive(s.act[1], s.merged[1])
			cur := combineMerged(s.merged[0], s.merged[1], table, s.rowB[:0])
			s.rowB = cur
			if !sameIntervals(cur, row) {
				flush(lastY)
				bandY0 = lastY
				// Swap the band buffer and the segment buffer so the
				// accepted segment becomes the open band without a copy.
				s.rowA, s.rowB = s.rowB, s.rowA
				row = cur
			}
		}
		if !started {
			bandY0 = y
			started = true
		} else if len(row) == 0 {
			bandY0 = y
		}
		for k < len(ev) && ev[k].y == y {
			s.apply(ev[k])
			k++
		}
		lastY = y
	}
	flush(lastY)
	hSweepWidth.Observe(float64(s.width))
	return out
}

// sweepUnion is the single-operand coverage sweep behind Normalize and
// UnionAll: one active list, output where coverage is positive.
func sweepUnion(sets ...[]Rect) []Rect {
	s := getSweeper()
	defer s.release()
	ev := s.events[:0]
	for _, rs := range sets {
		for _, r := range rs {
			if r.Empty() {
				continue
			}
			ev = append(ev,
				sweepEvent{y: r.Y0, x0: r.X0, x1: r.X1, enter: true},
				sweepEvent{y: r.Y1, x0: r.X0, x1: r.X1, enter: false},
			)
		}
	}
	s.events = ev
	if len(ev) == 0 {
		return nil
	}
	slices.SortFunc(ev, func(p, q sweepEvent) int { return cmp.Compare(p.y, q.y) })
	s.width = 0
	cSweepOps.Inc()
	cSweepEvents.Add(int64(len(ev)))

	var out []Rect
	row := s.rowA[:0]
	var bandY0, lastY int64
	started := false
	flush := func(y1 int64) {
		for _, v := range row {
			out = append(out, Rect{v.lo, bandY0, v.hi, y1})
		}
	}
	for k := 0; k < len(ev); {
		y := ev[k].y
		if started && y > lastY {
			cur := mergeActive(s.act[0], s.rowB[:0])
			s.rowB = cur
			if !sameIntervals(cur, row) {
				flush(lastY)
				bandY0 = lastY
				s.rowA, s.rowB = s.rowB, s.rowA
				row = cur
			}
		}
		if !started {
			bandY0 = y
			started = true
		} else if len(row) == 0 {
			bandY0 = y
		}
		for k < len(ev) && ev[k].y == y {
			s.apply(ev[k])
			k++
		}
		lastY = y
	}
	flush(lastY)
	hSweepWidth.Observe(float64(s.width))
	return out
}

// sweepArea runs the combine sweep accumulating covered area only —
// no output rects, no band coalescing, zero allocation beyond pooled
// scratch. op semantics match sweepBoolOp.
func sweepArea(a, b []Rect, op opKind) int64 {
	s := getSweeper()
	defer s.release()
	if !s.load(a, b) {
		return 0
	}
	table := &opTables[op]
	var area, lastY int64
	started := false
	ev := s.events
	for k := 0; k < len(ev); {
		y := ev[k].y
		if started && y > lastY {
			s.merged[0] = mergeActive(s.act[0], s.merged[0])
			s.merged[1] = mergeActive(s.act[1], s.merged[1])
			cur := combineMerged(s.merged[0], s.merged[1], table, s.rowB[:0])
			s.rowB = cur
			var w int64
			for _, v := range cur {
				w += v.hi - v.lo
			}
			area += w * (y - lastY)
		}
		started = true
		for k < len(ev) && ev[k].y == y {
			s.apply(ev[k])
			k++
		}
		lastY = y
	}
	hSweepWidth.Observe(float64(s.width))
	return area
}

// UnionAll returns the region covered by any of the given sets as
// disjoint rects in canonical order. It is the n-ary Union: one sweep
// over all operands replaces a chain of pairwise Union calls, which
// costs O(m · n log n) for m operands against one O(n log n) pass.
func UnionAll(sets ...[]Rect) []Rect {
	return sweepUnion(sets...)
}

// IntersectArea returns the area covered by both a and b without
// materializing the intersection geometry.
func IntersectArea(a, b []Rect) int64 {
	return sweepArea(a, b, opIntersect)
}

// UnionArea returns the area covered by a or b without materializing
// the union geometry (segment-tree sweep: union area needs no per-set
// bookkeeping).
func UnionArea(a, b []Rect) int64 {
	return unionArea(a, b)
}

// ClipArea returns the area of the region rs covered inside the clip
// rectangle. Normalized (disjoint) input — the layer form throughout
// the DFM stack — is measured with a zero-allocation linear scan;
// overlapping input falls back to the area sweep.
func ClipArea(rs []Rect, clip Rect) int64 {
	if clip.Empty() {
		return 0
	}
	if IsNormal(rs) {
		var a int64
		for _, r := range rs {
			if r.Y0 >= clip.Y1 {
				break // bands are y-sorted: nothing further can overlap
			}
			a += r.Intersect(clip).Area()
		}
		return a
	}
	return sweepArea(rs, []Rect{clip}, opIntersect)
}
