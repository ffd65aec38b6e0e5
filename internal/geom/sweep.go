package geom

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/keysort"
)

// This file implements the region algebra as one sweep line, the
// Bentley–Ottmann-style formulation production layout engines use:
// y-events (rect tops and bottoms) are sorted once and the scanline's
// active x-intervals are maintained incrementally as rects enter and
// leave. The sweeper's iterator (next) applies one row of events at a
// time and returns the y-segment that row closes, with the scanline's
// coverage under one of five rules. Two consumers read it: bands
// coalesces the segments into normal-form rects, sweepArea sums width ×
// height. Each operation is O((n + k) log n) in the event count n and
// output size k for bounded scanline occupancy, against the
// O(n · slabs) per-slab rescan of the legacy slab engine, which is
// compiled only into the tests (slab_test.go) as the differential
// oracle.
//
// All scratch state (event queue, active lists, merged-interval
// buffers) lives in a pooled sweeper so steady-state operations
// allocate only their output slice.

// opKind selects the coverage rule. The three binary rules combine
// operands a and b by a truth table indexed by (inA<<1 | inB); the two
// one-operand rules load every rect as operand 0 and keep the points
// it covers at least once or at least twice. The binary rules come
// first: load tells them apart by op < opCovered.
type opKind uint8

const (
	opUnion opKind = iota
	opIntersect
	opSubtract
	opCovered      // covered at least once: Normalize, UnionAll, UnionArea, AreaOf
	opCoveredTwice // covered at least twice: DoubleCoverArea
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
	k      int           // next event to apply
	y      int64         // where the segment the next call closes begins
	act    [2][]interval // active intervals per operand, sorted by (lo, hi)
	merged [2][]interval // merged coverage of each active list
	rowA   []interval    // combined intervals of the open output band
	rowB   []interval    // combined intervals of the current segment
	width  int           // widest active set between rows (instrumentation)
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

// load fills the event queue from the operands, sorts it by y and
// rewinds the iterator. Under a binary rule sets are the operands a and
// b; under a one-operand rule every rect of every set is operand 0.
// Returns false when there is nothing to sweep.
func (s *sweeper) load(op opKind, sets ...[]Rect) bool {
	ev := s.events[:0]
	minY, maxY := int64(math.MaxInt64), int64(math.MinInt64)
	for i, rs := range sets {
		var set uint8
		if op < opCovered {
			set = uint8(i)
		}
		for _, r := range rs {
			if r.Empty() {
				continue
			}
			ev = append(ev,
				sweepEvent{y: r.Y0, x0: r.X0, x1: r.X1, set: set, enter: true},
				sweepEvent{y: r.Y1, x0: r.X0, x1: r.X1, set: set, enter: false},
			)
			minY, maxY = min(minY, r.Y0), max(maxY, r.Y1)
		}
	}
	s.events = ev
	if len(ev) == 0 {
		return false
	}
	sortEvents(ev, minY, maxY)
	s.k, s.y, s.width = 0, ev[0].y, 0
	cSweepOps.Inc()
	cSweepEvents.Add(int64(len(ev)))
	return true
}

// sortEvents sorts ev, whose ys lie in [minY, maxY], by y. It sorts
// integers, not events: each event's key is y − minY above its index,
// and the events follow their sorted keys. The result is the stable
// sort by y, where a comparator sort leaves a row in an order of its
// own, but no consumer can tell the two apart. A row is applied whole
// before next reads the coverage again, so only the active lists after
// the row matter, and those hold the same intervals in any order of
// applying: an interval's enter and leave are never in one row (load
// skips empty rects, so Y0 < Y1), and an enter and a leave of equal
// intervals in one row commute. A span of ys too wide to pack beside
// the index keeps the comparator sort.
func sortEvents(ev []sweepEvent, minY, maxY int64) {
	idxBits := uint(bits.Len(uint(len(ev) - 1)))
	top := idxBits + uint(bits.Len64(uint64(maxY)-uint64(minY)))
	if top > 64 {
		slices.SortFunc(ev, func(p, q sweepEvent) int { return cmp.Compare(p.y, q.y) })
		return
	}
	sc := keysort.Get()
	keys := sc.Keys(len(ev))
	for i, e := range ev {
		keys[i] = (uint64(e.y)-uint64(minY))<<idxBits | uint64(i)
	}
	keysort.Permute(ev, sc.Sort(keys, idxBits, top), idxBits)
	keysort.Put(sc)
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
	} else {
		copy(act[pos:], act[pos+1:])
		act = act[:len(act)-1]
	}
	s.act[e.set] = act
}

// next applies the next row of y-events and returns the y-segment
// [y0, y1) that row closes, with the scanline's coverage over it under
// op as disjoint, gap-separated intervals sorted by lo. The slice is
// s.rowB, overwritten by the following call. The first call closes the
// empty, zero-height segment at the first row; ok is false once every
// row has been applied.
func (s *sweeper) next(op opKind) (y0, y1 int64, cov []interval, ok bool) {
	ev, k := s.events, s.k
	if k == len(ev) {
		return 0, 0, nil, false
	}
	y0, y1 = s.y, ev[k].y
	switch op {
	case opCovered:
		s.rowB = mergeActive(s.act[0], s.rowB)
	case opCoveredTwice:
		s.rowB = doubleActive(s.act[0], s.rowB)
	default:
		s.merged[0] = mergeActive(s.act[0], s.merged[0])
		s.merged[1] = mergeActive(s.act[1], s.merged[1])
		s.rowB = combineMerged(s.merged[0], s.merged[1], &opTables[op], s.rowB)
	}
	for ; k < len(ev) && ev[k].y == y1; k++ {
		s.apply(ev[k])
	}
	s.k, s.y = k, y1
	s.width = max(s.width, len(s.act[0]), len(s.act[1]))
	return y0, y1, s.rowB, true
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

// doubleActive rewrites dst with the merged part of the active list
// covered at least twice. The list is sorted by lo, so the doubly
// covered part of each interval is [lo, min(hi, reach)), where reach is
// the furthest hi of the intervals before it: one linear pass.
func doubleActive(act []interval, dst []interval) []interval {
	dst = dst[:0]
	reach := int64(math.MinInt64)
	for _, v := range act {
		if v.lo < reach {
			dst = appendMerged(dst, interval{v.lo, min(v.hi, reach)})
		}
		reach = max(reach, v.hi)
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

// bands runs the sweep under op and returns the region in normal form:
// a segment whose coverage equals the open band's extends it, any other
// closes it and opens the next. Bands come out bottom-up and intervals
// left to right, so no final sort is needed.
func bands(op opKind, sets ...[]Rect) []Rect {
	s := getSweeper()
	defer s.release()
	if !s.load(op, sets...) {
		return nil
	}
	var out []Rect
	row := s.rowA[:0] // intervals of the open band
	var bandY0 int64  // where the open band started
	for {
		y0, _, cur, ok := s.next(op)
		if !ok {
			break
		}
		if !sameIntervals(cur, row) {
			out = appendBand(out, row, bandY0, y0)
			bandY0 = y0
			// Swap the band buffer and the segment buffer so the
			// accepted segment becomes the open band without a copy.
			s.rowA, s.rowB = s.rowB, s.rowA
			row = cur
		}
	}
	out = appendBand(out, row, bandY0, s.y)
	hSweepWidth.Observe(float64(s.width))
	return out
}

// appendBand appends the rects of one band: row's intervals over
// [y0, y1).
func appendBand(out []Rect, row []interval, y0, y1 int64) []Rect {
	for _, v := range row {
		out = append(out, Rect{v.lo, y0, v.hi, y1})
	}
	return out
}

// sweepArea runs the sweep under op and sums the covered area — no
// output rects, no band coalescing, zero allocation beyond pooled
// scratch.
func sweepArea(op opKind, sets ...[]Rect) int64 {
	s := getSweeper()
	defer s.release()
	if !s.load(op, sets...) {
		return 0
	}
	var area int64
	for {
		y0, y1, cov, ok := s.next(op)
		if !ok {
			break
		}
		var w int64
		for _, v := range cov {
			w += v.hi - v.lo
		}
		area += w * (y1 - y0)
	}
	hSweepWidth.Observe(float64(s.width))
	return area
}

// UnionAll returns the region covered by any of the given sets as
// disjoint rects in canonical order. It is the n-ary Union: one sweep
// over all operands replaces a chain of pairwise Union calls, which
// costs O(m · n log n) for m operands against one O(n log n) pass.
func UnionAll(sets ...[]Rect) []Rect {
	return bands(opCovered, sets...)
}

// IntersectArea returns the area covered by both a and b without
// materializing the intersection geometry.
func IntersectArea(a, b []Rect) int64 {
	return sweepArea(opIntersect, a, b)
}

// UnionArea returns the area covered by a or b without materializing
// the union geometry.
func UnionArea(a, b []Rect) int64 {
	return sweepArea(opCovered, a, b)
}

// DoubleCoverArea returns the area covered by rects of at least two
// different sets — equivalently, the union of all pairwise
// intersections — in one sweep over all sets, with nothing
// materialized. Each set is normalized first (free for input already in
// normal form), so the multiplicity of a point is the number of
// distinct sets covering it.
func DoubleCoverArea(sets ...[]Rect) int64 {
	ns := make([][]Rect, len(sets))
	for i, rs := range sets {
		ns[i] = Normalize(rs)
	}
	return sweepArea(opCoveredTwice, ns...)
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
	return sweepArea(opIntersect, rs, []Rect{clip})
}
