package tiling

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/drc"
	"repro/internal/fill"
	"repro/internal/geom"
)

// stitched is the merged stage-A state of one evaluation: what the
// stitch produced, kept by the Snapshot so the next delta patches it
// instead of rebuilding it. Immutable once returned — results and later
// snapshots share its slices.
type stitched struct {
	// viol is the merged, seam-resolved violation list in SortViolations
	// order: the result's Violations, which a delta patches.
	viol []drc.Violation
	// dens holds the global per-rule window densities,
	// [plan.densRules index][plan.wins index].
	dens   [][]float64
	byRule map[string]int
}

// stitchTiles merges the stage-A outputs into res and returns the
// stitched state behind it. outs are the per-tile outputs of this
// evaluation; dirty lists, ascending, the tiles among them that were
// recomputed, and prev is the snapshot the others were spliced from. A
// from-scratch evaluation is the same merge with nothing retained: prev
// nil, every tile dirty.
//
// The stitch rests on three facts. A tile reports a violation only if
// the marker overlaps its core (keepViolations), so a violation's flat
// multiplicity — the longest run any one tile holds of it, since some
// tile sees its full local context — can only move when a tile under
// its marker was recomputed. Every density window is owned by exactly
// one tile, the one holding its lower-left corner, whatever cores it
// overhangs. And SortViolations is a total order that sorts by rule
// first, so a sorted list is a run of per-rule blocks, sorted lists
// merge to one well-defined list and a changed value has one position in
// it.
//
// So the stitch is one walk over the rules in order, and each rule's
// block of the result is written once, straight into it, from only what
// holds that rule: its block of each recomputed tile's old and new list,
// its windows if it is a density rule, and its segment of the retained
// list. A rule no recomputed list touches is its retained segment,
// copied. A rule one list alone holds is that list's block, copied with
// its runs; from scratch that is how a density rule's out-of-range
// windows are rendered, in place. Only a rule several lists hold is
// merged, among those lists (mergeBlocks), and where some of it was
// retained the merged old and new sides patch its segment (patchRule).
// Nothing is formatted, compared or ranked for a tile that was spliced.
//
// outs' dirty entries are replaced by sorted copies where a result came
// back unsorted (an older node's cache): outs are shared with the cache
// and must not be reordered in place.
func (p *plan) stitchTiles(res *Result, outs []*TileResult, dirty []int, prev *Snapshot) *stitched {
	span := hStitchNS.Start()
	defer span.End()
	var old stitched // zero: nothing retained
	if prev != nil {
		old = *prev.st
	}
	st := &stitched{byRule: make(map[string]int, len(p.rules)), dens: make([][]float64, len(p.densRules))}
	for _, name := range p.rules {
		st.byRule[name] = 0
	}

	// The unread tails of the sorted lists the recomputed tiles held
	// before and hold now, empty ones left out. grow bounds what the
	// result holds beyond the retained list.
	var was, now [][]drc.Violation
	grow := 0
	for _, ti := range dirty {
		if !slices.IsSortedFunc(outs[ti].Violations, drc.CompareViolations) {
			sorted := *outs[ti]
			sorted.Violations = slices.Clone(sorted.Violations)
			drc.SortViolations(sorted.Violations)
			outs[ti] = &sorted
		}
		if l := outs[ti].Violations; len(l) > 0 {
			now, grow = append(now, l), grow+len(l)
		}
		if prev != nil && len(prev.outs[ti].Violations) > 0 {
			was = append(was, prev.outs[ti].Violations)
		}
	}

	// Density. The windows a change can reach are those the recomputed
	// tiles own, in grid order, which is marker order; nil stands for
	// every window, when every tile was recomputed. dens lists the rules
	// by name, the order the walk reaches them in.
	var wins []int
	if len(dirty) < len(outs) && len(p.densRules) > 0 {
		wins = []int{}
		for _, ti := range dirty {
			wins = append(wins, p.perTileWins[ti]...)
		}
		slices.Sort(wins)
	}
	type densRule struct {
		name  string
		di    int
		moved bool // a value changed: the windows are a source
	}
	dens := make([]densRule, len(p.densRules))
	for di, dr := range p.densRules {
		var out int
		dens[di] = densRule{name: dr.Name(), di: di}
		st.dens[di], dens[di].moved, out = p.densityValues(di, old.dens, outs, dirty)
		grow += out
	}
	slices.SortFunc(dens, func(a, b densRule) int { return cmp.Compare(a.name, b.name) })

	var clean []bool // the spliced tiles; nil when there are none
	if len(dirty) < len(outs) {
		clean = make([]bool, len(outs))
		for i := range clean {
			clean[i] = true
		}
		for _, ti := range dirty {
			clean[ti] = false
		}
	}

	all := make([]drc.Violation, 0, len(old.viol)+grow)
	retained := old.viol
	var wasBlocks, nowBlocks [][]drc.Violation
	var densWas, densNow []drc.Violation
	for {
		// The rule is the least one any source still holds.
		rule, ok := "", false
		least := func(r string) {
			if !ok || r < rule {
				rule, ok = r, true
			}
		}
		if len(retained) > 0 {
			least(retained[0].Rule)
		}
		for _, l := range was {
			least(l[0].Rule)
		}
		for _, l := range now {
			least(l[0].Rule)
		}
		if len(dens) > 0 {
			least(dens[0].name)
		}
		if !ok {
			break
		}
		seg := cutBlock(&retained, rule)
		wasBlocks, was = cutBlocks(wasBlocks[:0], was, rule)
		nowBlocks, now = cutBlocks(nowBlocks[:0], now, rule)
		start := len(all)
		if len(dens) > 0 && dens[0].name == rule {
			d := dens[0]
			dens = dens[1:]
			if d.moved {
				render := p.densRules[d.di].Renderer()
				if len(seg) == 0 && len(wasBlocks) == 0 && len(nowBlocks) == 0 {
					// The windows alone hold the rule: rendered in place.
					// Nothing of it was retained, so no window was out of
					// range before.
					_, all = p.densityChanges(nil, all, d.di, old.dens, st.dens[d.di], wins, render)
				} else {
					densWas, densNow = p.densityChanges(densWas[:0], densNow[:0], d.di, old.dens, st.dens[d.di], wins, render)
					wasBlocks = appendNonEmpty(wasBlocks, densWas)
					nowBlocks = appendNonEmpty(nowBlocks, densNow)
				}
			}
		}
		if len(seg) == 0 && len(wasBlocks) == 0 {
			// Nothing retained, so no clean tile holds the rule either:
			// its blocks merge straight into the result.
			all = mergeBlocks(all, nowBlocks)
		} else {
			all = p.patchRule(all, seg, wasBlocks, nowBlocks, outs, clean)
		}
		if n := len(all) - start; n > 0 {
			st.byRule[rule] = n
		}
	}
	if len(all) > 0 {
		st.viol = all[:len(all):len(all)]
	} // else nil, as the flat result's list is when nothing violates

	res.Stats.Tiles = len(outs)
	for name, n := range st.byRule {
		res.ByRule[name] = n
	}
	res.Violations = st.viol
	if p.opts.KeepDensityMaps {
		for di, dr := range p.densRules {
			res.Density[dr.Layer] = fill.DensityMap{Windows: p.wins, Density: st.dens[di]}
		}
	}
	return st
}

// densityValues brings density rule di's global value array up to date
// with the recomputed tiles. old holds the retained arrays (nil from
// scratch, when every window counts as moved); the returned array is
// old's own unless a value differs, so an edit that leaves a layer's
// densities alone copies nothing. moved reports whether the array is a
// new one, and out counts the windows that moved out of range: the most
// violations densityChanges can add.
func (p *plan) densityValues(di int, old [][]float64, outs []*TileResult, dirty []int) (vals []float64, moved bool, out int) {
	dr := p.densRules[di]
	shared := old != nil
	if shared {
		vals = old[di]
	} else {
		vals = make([]float64, len(p.wins))
	}
	for _, ti := range dirty {
		for j, wi := range p.perTileWins[ti] {
			d := outs[ti].Dens[di][j]
			same := math.Float64bits(d) == math.Float64bits(vals[wi])
			if (old == nil || !same) && dr.OutOfRange(d) {
				out++
			}
			if same {
				continue
			}
			if shared {
				vals, shared = slices.Clone(vals), false
			}
			vals[wi] = d
		}
	}
	return vals, !shared, out
}

// densityChanges appends density rule di's violations over wins (every
// window when nil), in marker order and only where the value moved: to
// was those the retained value old made, to now those the current value
// vals makes. With nothing retained every window has moved. Details come
// from render, which formats each distinct value once.
func (p *plan) densityChanges(was, now []drc.Violation, di int, old [][]float64, vals []float64, wins []int,
	render *drc.DensityRenderer) ([]drc.Violation, []drc.Violation) {
	dr := p.densRules[di]
	n := len(p.wins)
	if wins != nil {
		n = len(wins)
	}
	for k := range n {
		wi := k
		if wins != nil {
			wi = wins[k]
		}
		d := vals[wi]
		if old != nil {
			o := old[di][wi]
			if math.Float64bits(o) == math.Float64bits(d) {
				continue
			}
			if dr.OutOfRange(o) {
				was = append(was, render.Violation(p.wins[wi], o))
			}
		}
		if dr.OutOfRange(d) {
			now = append(now, render.Violation(p.wins[wi], d))
		}
	}
	return was, now
}

// patchRule appends to dst one rule's block of the result: seg, the
// rule's retained block, with the recomputed part of it brought up to
// date. was and now are the rule's blocks of the lists the recomputed
// tiles held and hold, and of its windows; they are reordered. Both
// sides are merged in order. A value whose longest run among them did
// not move keeps its place; one that did is re-resolved against the
// clean tiles under its marker and written between copied parts of seg.
// With was and now empty, seg is copied whole.
func (p *plan) patchRule(dst, seg []drc.Violation, was, now [][]drc.Violation,
	outs []*TileResult, clean []bool) []drc.Violation {
	wasRuns, nowRuns := newBlockHeap(was), newBlockHeap(now)
	for len(wasRuns) > 0 || len(nowRuns) > 0 {
		c := 0
		switch {
		case len(wasRuns) == 0:
			c = 1
		case len(nowRuns) == 0:
			c = -1
		default:
			c = drc.CompareWithinRule(wasRuns[0][0], nowRuns[0][0])
		}
		var v drc.Violation
		var nWas, nNow int
		if c <= 0 {
			v, nWas = wasRuns.next()
		}
		if c >= 0 {
			v, nNow = nowRuns.next()
		}
		if nWas == nNow {
			continue
		}
		if clean != nil {
			nNow = max(nNow, p.longestCleanRun(v, outs, clean))
		}
		at, found := slices.BinarySearchFunc(seg, v, drc.CompareWithinRule)
		dst = append(dst, seg[:at]...)
		if seg = seg[at:]; found {
			seg = seg[runOf(seg):]
		}
		for k := 0; k < nNow; k++ {
			dst = append(dst, v)
		}
	}
	return append(dst, seg...)
}

// runOf returns how many copies of vs[0] vs starts with, 0 for an empty
// list.
func runOf(vs []drc.Violation) int {
	k := 0
	for k < len(vs) && vs[k] == vs[0] {
		k++
	}
	return k
}

// cutBlock removes rule's block from the front of *vs, a sorted list
// whose head is not below rule, and returns it: empty unless the head
// is of rule. The block's end is found by binary search.
func cutBlock(vs *[]drc.Violation, rule string) []drc.Violation {
	l := *vs
	if len(l) == 0 || l[0].Rule != rule {
		return nil
	}
	lo, hi := 1, len(l) // l[lo-1] is of rule; l[hi:] is not
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if l[h].Rule == rule {
			lo = h + 1
		} else {
			hi = h
		}
	}
	*vs = l[lo:]
	return l[:lo]
}

// cutBlocks cuts rule's block from the front of every list of tails,
// appends the non-empty ones to blocks, and returns both, tails without
// the lists that have nothing left.
func cutBlocks(blocks, tails [][]drc.Violation, rule string) ([][]drc.Violation, [][]drc.Violation) {
	kept := tails[:0]
	for _, l := range tails {
		blocks = appendNonEmpty(blocks, cutBlock(&l, rule))
		if len(l) > 0 {
			kept = append(kept, l)
		}
	}
	return blocks, kept
}

func appendNonEmpty(blocks [][]drc.Violation, b []drc.Violation) [][]drc.Violation {
	if len(b) == 0 {
		return blocks
	}
	return append(blocks, b)
}

// longestCleanRun returns the longest run of v any spliced tile holds.
// Only a tile whose core the marker overlaps can hold it at all.
func (p *plan) longestCleanRun(v drc.Violation, outs []*TileResult, clean []bool) int {
	n := 0
	p.forTilesNear(v.Marker, 0, func(ti int) {
		if !clean[ti] || !v.Marker.Overlaps(p.core(ti)) {
			return
		}
		vs := outs[ti].Violations
		at, found := slices.BinarySearchFunc(vs, v, drc.CompareViolations)
		if !found {
			return
		}
		k := at + 1
		for k < len(vs) && vs[k] == v {
			k++
		}
		n = max(n, k-at)
	})
	return n
}

// forTilesNear visits every tile whose core, bloated by pad, touches r
// (closed intervals), and possibly a tile just beyond: grid arithmetic
// bounds the candidates, callers apply their own exact predicate.
func (p *plan) forTilesNear(r geom.Rect, pad int64, visit func(ti int)) {
	tile := p.opts.Tile
	span := func(lo, hi, origin int64, n int) (int, int) {
		a := (lo-pad-origin)/tile - 1
		b := (hi + pad - origin) / tile
		return int(max(a, 0)), int(min(b, int64(n-1)))
	}
	tx0, tx1 := span(r.X0, r.X1, p.die.X0, p.nx)
	ty0, ty1 := span(r.Y0, r.Y1, p.die.Y0, p.ny)
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			visit(ty*p.nx + tx)
		}
	}
}

// mergeBlocks appends to dst the merge of blocks, non-empty sorted lists
// of one rule, which it reorders: each distinct violation as many times
// as the longest run any one block holds of it. Where the least block's
// head is below every other head, its elements up to the next other head
// are copied at once, runs and all; only a value at the head of several
// blocks is resolved on its own.
func mergeBlocks(dst []drc.Violation, blocks [][]drc.Violation) []drc.Violation {
	h := newBlockHeap(blocks)
	for len(h) > 1 {
		next := &h[1][0] // the least head of another block
		if len(h) > 2 && drc.CompareWithinRule(h[2][0], *next) < 0 {
			next = &h[2][0]
		}
		if m := below(h[0], next); m > 0 {
			dst = append(dst, h[0][:m]...)
			h.advance(m)
			continue
		}
		v, n := h.next()
		for ; n > 0; n-- {
			dst = append(dst, v)
		}
	}
	if len(h) == 1 {
		dst = append(dst, h[0]...)
	}
	return dst
}

// below returns how many elements of the sorted block l order before
// *v: a gallop from the front, then a binary search.
func below(l []drc.Violation, v *drc.Violation) int {
	if drc.CompareWithinRule(l[0], *v) >= 0 {
		return 0
	}
	lo, hi := 1, 2 // l[lo-1] is below v
	for hi < len(l) && drc.CompareWithinRule(l[hi], *v) < 0 {
		lo, hi = hi+1, 2*hi+1
	}
	hi = min(hi, len(l))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if drc.CompareWithinRule(l[m], *v) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// blockHeap is one rule's non-empty blocks as a binary min-heap on their
// heads, ordered past the rule name, which every block shares. The
// blocks are only read.
type blockHeap [][]drc.Violation

// newBlockHeap heap-orders blocks in place.
func newBlockHeap(blocks [][]drc.Violation) blockHeap {
	h := blockHeap(blocks)
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.sink(i)
	}
	return h
}

// next consumes the least head from every block that starts with it and
// returns it with the longest run one of them held.
func (h *blockHeap) next() (v drc.Violation, n int) {
	v = (*h)[0][0]
	for len(*h) > 0 && (*h)[0][0] == v {
		k := runOf((*h)[0])
		n = max(n, k)
		h.advance(k)
	}
	return v, n
}

// advance consumes k elements of the least block.
func (h *blockHeap) advance(k int) {
	t := *h
	if k < len(t[0]) {
		t[0] = t[0][k:]
	} else {
		last := len(t) - 1
		t[0] = t[last]
		t = t[:last]
	}
	t.sink(0)
	*h = t
}

func (h blockHeap) sink(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && drc.CompareWithinRule(h[c+1][0], h[c][0]) < 0 {
			c++
		}
		if drc.CompareWithinRule(h[c][0], h[i][0]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
