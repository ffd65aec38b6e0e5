package repair

import (
	"context"
	"sort"
	"strings"

	"repro/internal/drc"
	"repro/internal/dvia"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// Fix is one proposed repair: a typed delta plus the finding it
// addresses. Kind is "spread" (move a wire off a spacing violation),
// "double" (add a redundant via cut), or "grow" (extend a via's metal
// enclosure).
type Fix struct {
	Kind   string
	Rule   string    // the rule or finding the fix addresses
	Target geom.Rect // the offending marker (or the single cut doubled)
	Weight float64   // score cost at stake
	Delta  Delta
}

// Skip reasons for findings the fixer cannot turn into a proposal.
// These are reported, never silently dropped: an attribution with no
// proposal is as much a repair-loop outcome as a rejected fix.
const (
	SkipNotTopLevel = "offender-not-top-level" // geometry lives inside a macro
	SkipNoStrategy  = "no-fix-strategy"        // no fixer handles the rule
)

// Propose turns a score's attributions (plus a redundant-via pass)
// into candidate fixes, ordered most-valuable first: attribution
// weight descending, then kind, then marker position. skipped counts
// the attributions no strategy could propose for, by reason.
func Propose(ctx context.Context, t *tech.Tech, top *layout.Cell, sc Score, w Weights) (fixes []Fix, skipped map[string]int, err error) {
	skipped = make(map[string]int)
	for _, a := range sc.Attributions() {
		switch {
		case strings.Contains(a.Rule, ".space.") && !a.Layer.IsVia():
			if f, ok := proposeSpread(top, a); ok {
				fixes = append(fixes, f)
			} else {
				skipped[a.Rule+":"+SkipNotTopLevel]++
			}
		case strings.Contains(a.Rule, ".enc."):
			if f, ok := proposeGrow(t, top, a); ok {
				fixes = append(fixes, f)
			} else {
				skipped[a.Rule+":"+SkipNotTopLevel]++
			}
		default:
			skipped[a.Rule+":"+SkipNoStrategy]++
		}
	}

	// Redundant-via doubling over the cell's own shapes: top-level nets
	// are real nets (macro-internal vias are out of the fixer's reach,
	// exactly like macro-internal violations).
	rep, err := dvia.Insert(ctx, top.Shapes, t)
	if err != nil {
		return nil, nil, err
	}
	svw := w.SingleViaWeight()
	for _, ins := range rep.Placed {
		fixes = append(fixes, Fix{
			Kind:   "double",
			Rule:   "single." + ins.Via.String(),
			Target: ins.Origin,
			Weight: svw,
			Delta:  Delta{Added: ins.Shapes},
		})
	}
	if unfixed := rep.Candidates - rep.Inserted; unfixed > 0 {
		skipped["single-via:no-legal-position"] += unfixed
	}

	sort.SliceStable(fixes, func(i, j int) bool {
		a, b := fixes[i], fixes[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		am, bm := a.Target, b.Target
		if am.Y0 != bm.Y0 {
			return am.Y0 < bm.Y0
		}
		return am.X0 < bm.X0
	})
	return fixes, skipped, nil
}

// proposeSpread heals a spacing violation by sliding the upper/right
// offender away until the gap is legal. The marker of a facing-edge
// spacing violation is the gap box: its short axis is the measured
// gap, and the shape abutting its far side is the one to move. Only a
// shape of the cell's own (the designer's wires) can move; macro
// internals cannot.
func proposeSpread(top *layout.Cell, a Attribution) (Fix, bool) {
	s, ok := ruleDistance(a.Rule)
	if !ok {
		return Fix{}, false
	}
	m := a.Marker
	var move geom.Point
	var matches func(r geom.Rect) bool
	switch {
	case m.Width() < m.Height() && m.Width() < s:
		move = geom.Pt(s-m.Width(), 0)
		matches = func(r geom.Rect) bool { return r.X0 == m.X1 && r.Y0 <= m.Y1 && m.Y0 <= r.Y1 }
	case m.Height() < m.Width() && m.Height() < s:
		move = geom.Pt(0, s-m.Height())
		matches = func(r geom.Rect) bool { return r.Y0 == m.Y1 && r.X0 <= m.X1 && m.X0 <= r.X1 }
	default:
		// Corner-to-corner markers are near-square; moving diagonally
		// is not a single-axis slide, so no proposal.
		return Fix{}, false
	}
	for _, sh := range top.Shapes {
		if sh.Layer != a.Layer || !matches(sh.R) {
			continue
		}
		moved := sh
		moved.R = sh.R.Translate(move)
		return Fix{
			Kind: "spread", Rule: a.Rule, Target: m, Weight: a.Weight,
			Delta: Delta{Removed: []layout.Shape{sh}, Added: []layout.Shape{moved}},
		}, true
	}
	return Fix{}, false
}

// proposeGrow heals a via enclosure violation by extending the metal
// pad over the cut to a full legal enclosure. The marker is the cut;
// the pad is the cell's own metal shape overlapping it.
func proposeGrow(t *tech.Tech, top *layout.Cell, a Attribution) (Fix, bool) {
	if !a.Layer.IsVia() {
		return Fix{}, false
	}
	rules := t.Rules[a.Layer]
	metal := a.Layer.AboveOf()
	cut := a.Marker
	encA := cut.BloatXY(rules.ViaEnclosure, rules.ViaEncSide)
	encB := cut.BloatXY(rules.ViaEncSide, rules.ViaEnclosure)
	for _, sh := range top.Shapes {
		if sh.Layer != metal || !sh.R.Overlaps(cut) {
			continue
		}
		// Grow in the orientation that adds the least metal.
		grown := sh
		if ua, ub := sh.R.Union(encA), sh.R.Union(encB); ua.Area()-sh.R.Area() < ub.Area()-sh.R.Area() {
			grown.R = ua
		} else {
			grown.R = ub
		}
		return Fix{
			Kind: "grow", Rule: a.Rule, Target: cut, Weight: a.Weight,
			Delta: Delta{Removed: []layout.Shape{sh}, Added: []layout.Shape{grown}},
		}, true
	}
	return Fix{}, false
}

// NewViolations runs the legality check for a delta: extract the dirty
// window (the delta's bbox bloated by pad) from the current and the
// candidate hierarchy, run the full standard deck on both, and return
// the violations present after but not before (multiset difference),
// in SortViolations order.
// An empty return means the fix is DRC-legal by construction — it
// cannot have introduced a violation anywhere, because every rule
// interaction involving changed geometry lies within pad of it and the
// window carries that much unchanged context on every side.
func NewViolations(stdctx context.Context, t *tech.Tech, cur, cand *layout.Cell, d Delta, pad int64) ([]drc.Violation, error) {
	if d.Empty() {
		return nil, nil
	}
	win := d.BBox().Bloat(pad)
	deck := drc.StandardDeck(t)
	run := func(c *layout.Cell) (map[drc.Violation]int, error) {
		shapes := tiling.NewExtractor(c).AppendShapes(win, nil)
		r := deck.RunCtx(stdctx, drc.NewContext(t, shapes), 1)
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
		m := make(map[drc.Violation]int, len(r.Violations))
		for _, v := range r.Violations {
			m[v]++
		}
		return m, nil
	}
	before, err := run(cur)
	if err != nil {
		return nil, err
	}
	after, err := run(cand)
	if err != nil {
		return nil, err
	}
	var fresh []drc.Violation
	for v, n := range after {
		for k := before[v]; k < n; k++ {
			fresh = append(fresh, v)
		}
	}
	drc.SortViolations(fresh)
	return fresh, nil
}
