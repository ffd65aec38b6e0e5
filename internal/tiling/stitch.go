package tiling

import (
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
	// order, never truncated: Opts.MaxViolations is a view taken when a
	// Result is filled, so a delta can patch past the cap.
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
// overhangs. And SortViolations is a total order, so sorted lists merge
// to one well-defined list and a changed value has one position in it.
// The cost is therefore the recomputed tiles' lists plus segment copies
// of the retained one; nothing is formatted, compared or ranked for a
// tile that was spliced.
//
// outs' dirty entries are replaced by sorted copies where a result came
// back unsorted (an older node's cache): outs are shared with the cache
// and must not be reordered in place.
func (p *plan) stitchTiles(res *Result, outs []*TileResult, dirty []int, prev *Snapshot) *stitched {
	var old stitched // zero: nothing retained
	if prev != nil {
		old = *prev.st
	}
	st := &stitched{byRule: make(map[string]int, len(p.rules)), dens: make([][]float64, len(p.densRules))}
	for _, name := range p.rules {
		st.byRule[name] = 0
	}
	for name, n := range old.byRule {
		st.byRule[name] = n
	}

	// The sorted lists the recomputed tiles held before and hold now:
	// one per tile, and per density rule one of the out-of-range windows
	// those tiles own.
	var was, now [][]drc.Violation
	var wins []int
	for _, ti := range dirty {
		if !slices.IsSortedFunc(outs[ti].Violations, drc.CompareViolations) {
			sorted := *outs[ti]
			sorted.Violations = slices.Clone(sorted.Violations)
			drc.SortViolations(sorted.Violations)
			outs[ti] = &sorted
		}
		now = append(now, outs[ti].Violations)
		if prev != nil {
			was = append(was, prev.outs[ti].Violations)
		}
		if len(p.densRules) > 0 {
			wins = append(wins, p.perTileWins[ti]...)
		}
	}
	slices.Sort(wins) // grid order, which is marker order
	for di := range p.densRules {
		var wasOut, nowOut []drc.Violation
		st.dens[di], wasOut, nowOut = p.patchDensity(di, old.dens, outs, dirty, wins)
		was, now = append(was, wasOut), append(now, nowOut)
	}
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
	st.viol = p.patchViolations(old.viol, was, now, outs, clean, st.byRule)

	res.Stats.Tiles = len(outs)
	for name, n := range st.byRule {
		res.ByRule[name] = n
	}
	res.Violations = st.viol
	if limit := p.opts.MaxViolations; limit > 0 && len(st.viol) > limit {
		res.Dropped = len(st.viol) - limit
		res.Violations = st.viol[:limit:limit]
	}
	if p.opts.KeepDensityMaps {
		for di, dr := range p.densRules {
			res.Density[dr.Layer] = fill.DensityMap{Windows: p.wins, Density: st.dens[di]}
		}
	}
	return st
}

// patchDensity brings density rule di's global value array up to date
// with the recomputed tiles and returns it with the rule's violations
// before and after, over wins — the windows those tiles own, ascending —
// and only where the value moved. old holds the retained arrays (nil
// from scratch, when every window counts as moved); the returned array
// is old's own unless a value differs, so an edit that leaves a layer's
// densities alone copies nothing. Details come from one renderer, which
// formats each distinct value once.
func (p *plan) patchDensity(di int, old [][]float64, outs []*TileResult, dirty, wins []int) (vals []float64, was, now []drc.Violation) {
	shared := old != nil
	if shared {
		vals = old[di]
	} else {
		vals = make([]float64, len(p.wins))
	}
	for _, ti := range dirty {
		for j, wi := range p.perTileWins[ti] {
			d := outs[ti].Dens[di][j]
			if math.Float64bits(d) == math.Float64bits(vals[wi]) {
				continue
			}
			if shared {
				vals, shared = slices.Clone(vals), false
			}
			vals[wi] = d
		}
	}
	dr := p.densRules[di]
	render := dr.Renderer()
	if old == nil {
		// From scratch every out-of-range window is a violation: count
		// them and size now once, where append would regrow (and zero) a
		// chip-sized list a dozen times over.
		n := 0
		for _, wi := range wins {
			if dr.OutOfRange(vals[wi]) {
				n++
			}
		}
		now = make([]drc.Violation, 0, n)
	}
	for _, wi := range wins {
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
	return vals, was, now
}

// patchViolations returns the retained merged list with the recomputed
// tiles' part of it brought up to date: was and now are the sorted lists
// they held and hold. Both sides are walked in order. A value whose
// longest run among them did not move keeps its place; one that did is
// re-resolved against the clean tiles under its marker and written
// between copied segments of the retained list, byRule moving with it.
func (p *plan) patchViolations(retained []drc.Violation, was, now [][]drc.Violation,
	outs []*TileResult, clean []bool, byRule map[string]int) []drc.Violation {
	grow := 0
	for _, l := range now {
		grow += len(l)
	}
	all := make([]drc.Violation, 0, len(retained)+grow)
	// byRule is written once per run of a rule, not once per value.
	rule, moved := "", 0
	flush := func(next string) {
		if moved != 0 {
			byRule[rule] += moved
		}
		rule, moved = next, 0
	}
	wasRuns, nowRuns := newRunMerger(was), newRunMerger(now)
	for {
		wv, nv := wasRuns.head(), nowRuns.head()
		if wv == nil && nv == nil {
			break
		}
		c := 0
		switch {
		case wv == nil:
			c = 1
		case nv == nil:
			c = -1
		default:
			c = drc.CompareViolations(*wv, *nv)
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
		at, _ := slices.BinarySearchFunc(retained, v, drc.CompareViolations)
		all = append(all, retained[:at]...)
		retained = retained[at:]
		had := 0
		for had < len(retained) && retained[had] == v {
			had++
		}
		retained = retained[had:]
		for k := 0; k < nNow; k++ {
			all = append(all, v)
		}
		if v.Rule != rule {
			flush(v.Rule)
		}
		moved += nNow - had
	}
	flush("")
	all = append(all, retained...)
	if len(all) == 0 {
		return nil // as the flat result's list is when nothing violates
	}
	return all[:len(all):len(all)]
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

// runMerger walks a set of sorted violation lists as one: it yields, in
// SortViolations order, each distinct violation with the longest run
// any one list holds of it. The lists are only read.
type runMerger struct {
	// tails holds the unread remainder of every list that has one, as a
	// binary min-heap on the head element.
	tails [][]drc.Violation
}

func newRunMerger(lists [][]drc.Violation) *runMerger {
	m := &runMerger{tails: make([][]drc.Violation, 0, len(lists))}
	for _, l := range lists {
		if len(l) > 0 {
			m.tails = append(m.tails, l)
		}
	}
	for i := len(m.tails)/2 - 1; i >= 0; i-- {
		m.sink(i)
	}
	return m
}

// head returns the next violation without consuming it, nil when every
// list is read.
func (m *runMerger) head() *drc.Violation {
	if len(m.tails) == 0 {
		return nil
	}
	return &m.tails[0][0]
}

// next consumes the head violation from every list that holds it.
func (m *runMerger) next() (v drc.Violation, n int) {
	v = m.tails[0][0]
	for len(m.tails) > 0 && m.tails[0][0] == v {
		l := m.tails[0]
		k := 1
		for k < len(l) && l[k] == v {
			k++
		}
		n = max(n, k)
		if k < len(l) {
			m.tails[0] = l[k:]
		} else {
			last := len(m.tails) - 1
			m.tails[0] = m.tails[last]
			m.tails = m.tails[:last]
		}
		m.sink(0)
	}
	return v, n
}

func (m *runMerger) sink(i int) {
	h := m.tails
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && drc.CompareViolations(h[c+1][0], h[c][0]) < 0 {
			c++
		}
		if drc.CompareViolations(h[c][0], h[i][0]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
