// Package dvia implements DRC-legal redundant-via insertion: for each
// single-cut via, try to add a second cut next to it (with its metal
// enclosure) without violating spacing to neighboring geometry. Via
// failures dominate back-end defectivity, and doubling cuts is the
// textbook "free" DFM yield technique — experiment T1 measures how
// free it actually is.
package dvia

import (
	"context"
	"sort"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	yieldpkg "repro/internal/yield"
)

// viaLayers are the layers insertion processes, in this order.
var viaLayers = [...]tech.Layer{tech.Via1, tech.Via2}

// Insertion is one committed second cut with everything it brought
// along: the cut itself plus any landing-bar extensions. Shapes is the
// per-insertion slice of Report.AddedShapes, so a caller that wants to
// apply (or roll back) one doubling at a time has its exact geometry.
type Insertion struct {
	Via    tech.Layer // via layer of the added cut
	Cut    geom.Rect  // the added second cut
	Origin geom.Rect  // the existing single cut it pairs with
	Net    layout.NetID
	Shapes []layout.Shape // cut + landing bars (0..2 metal rects)
}

// Report summarizes one insertion run.
type Report struct {
	Candidates int // single vias examined
	Inserted   int // second cuts added
	// Coverage is Inserted/Candidates.
	Coverage float64
	// AddedShapes is the new geometry (cuts and pads).
	AddedShapes []layout.Shape
	// Placed lists each committed insertion with its own shapes, in
	// the deterministic layer-then-coordinate insertion order.
	Placed []Insertion
}

// Insert finds single vias in the flat layout and returns the added
// second cuts plus enclosure pads, checking cut spacing and metal
// spacing against all existing geometry. The input is not modified;
// callers append Report.AddedShapes.
//
// Insertion order is layer-then-coordinate deterministic: via layers
// in viaLayers order, cuts within a layer by (Y0, X0, Y1, X1, Net) — so the
// result is bit-identical across runs regardless of the input shape
// order. A canceled context aborts with the error; the partial report
// is not returned.
func Insert(ctx context.Context, flat []layout.Shape, t *tech.Tech) (Report, error) {
	var rep Report

	for _, vl := range viaLayers {
		if err := rep.insertLayer(ctx, flat, t, vl); err != nil {
			return Report{}, err
		}
	}
	if rep.Candidates > 0 {
		rep.Coverage = float64(rep.Inserted) / float64(rep.Candidates)
	}
	return rep, nil
}

// insertLayer processes one via layer.
func (rep *Report) insertLayer(ctx context.Context, flat []layout.Shape, t *tech.Tech, vl tech.Layer) error {
	rules := t.Rules[vl]
	vs, vsp := rules.ViaSize, rules.ViaSpace
	below, above := vl.Below(), vl.AboveOf()

	// Occupancy indexes: cuts on this layer, metal below, metal above,
	// each laid over all three layers.
	var extent geom.Rect
	for _, s := range flat {
		if s.Layer == vl || s.Layer == below || s.Layer == above {
			extent = extent.Union(s.R)
		}
	}
	cutIx := geom.NewIndex(extent, 1024)
	var cutNets []layout.NetID
	belowIx := geom.NewIndex(extent, 1024)
	var belowNets []layout.NetID
	aboveIx := geom.NewIndex(extent, 1024)
	var aboveNets []layout.NetID
	var cuts []layout.Shape
	for _, s := range flat {
		switch s.Layer {
		case vl:
			cutIx.Insert(s.R)
			cutNets = append(cutNets, s.Net)
			cuts = append(cuts, s)
		case below:
			belowIx.Insert(s.R)
			belowNets = append(belowNets, s.Net)
		case above:
			aboveIx.Insert(s.R)
			aboveNets = append(aboveNets, s.Net)
		}
	}
	// Candidates are visited in coordinate order, not input order: each
	// committed insertion lands in the occupancy indexes and constrains
	// later candidates, so the visit order is part of the result.
	sort.Slice(cuts, func(i, j int) bool {
		a, b := cuts[i], cuts[j]
		if a.R.Y0 != b.R.Y0 {
			return a.R.Y0 < b.R.Y0
		}
		if a.R.X0 != b.R.X0 {
			return a.R.X0 < b.R.X0
		}
		if a.R.Y1 != b.R.Y1 {
			return a.R.Y1 < b.R.Y1
		}
		if a.R.X1 != b.R.X1 {
			return a.R.X1 < b.R.X1
		}
		return a.Net < b.Net
	})

	// Identify singles (no same-net partner within pairing distance).
	pairDist := 3 * vs
	for ci, c := range cuts {
		if ci&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if c.Net == layout.NoNet {
			continue
		}
		partner := false
		cutIx.QueryFunc(c.R.Bloat(pairDist), func(id int, r geom.Rect) bool {
			if r != c.R && cutNets[id] == c.Net && c.R.Distance(r) <= pairDist {
				partner = true
				return false
			}
			return true
		})
		if partner {
			continue
		}
		rep.Candidates++
		cCandidates.Inc()

		// Try the four adjacent positions at minimum cut spacing. Where
		// the existing same-net metal on a layer does not already
		// enclose the new cut, plan a landing-bar extension (the two
		// routing layers run perpendicular, so one layer almost always
		// needs one). The candidate commits only if the cut spacing
		// and every extension's spacing are legal.
		step := vs + vsp
		for _, d := range [4]geom.Point{{X: step}, {X: -step}, {Y: step}, {Y: -step}} {
			cand := c.R.Translate(d)
			if !rep.cutLegal(cand, c.Net, rules, cutIx, cutNets) {
				continue
			}
			extB, okB := planExtension(cand, c.R, c.Net, t, vl.Below(), rules, belowIx, belowNets)
			if !okB {
				continue
			}
			extA, okA := planExtension(cand, c.R, c.Net, t, vl.AboveOf(), rules, aboveIx, aboveNets)
			if !okA {
				continue
			}
			ins := Insertion{Via: vl, Cut: cand, Origin: c.R, Net: c.Net}
			ins.Shapes = append(ins.Shapes,
				layout.Shape{Layer: vl, R: cand, Net: c.Net})
			cutIx.Insert(cand)
			cutNets = append(cutNets, c.Net)
			if !extB.Empty() {
				ins.Shapes = append(ins.Shapes,
					layout.Shape{Layer: below, R: extB, Net: c.Net})
				belowIx.Insert(extB)
				belowNets = append(belowNets, c.Net)
			}
			if !extA.Empty() {
				ins.Shapes = append(ins.Shapes,
					layout.Shape{Layer: above, R: extA, Net: c.Net})
				aboveIx.Insert(extA)
				aboveNets = append(aboveNets, c.Net)
			}
			rep.AddedShapes = append(rep.AddedShapes, ins.Shapes...)
			rep.Placed = append(rep.Placed, ins)
			rep.Inserted++
			cInserted.Inc()
			break
		}
	}
	return nil
}

// cutLegal checks cut-to-cut spacing against other nets (same-net
// spacing holds by construction of the candidate offsets).
func (rep *Report) cutLegal(cand geom.Rect, net layout.NetID, rules tech.LayerRules,
	cutIx *geom.Index, cutNets []layout.NetID) bool {
	ok := true
	cutIx.QueryFunc(cand.Bloat(rules.ViaSpace), func(id int, r geom.Rect) bool {
		if cutNets[id] != net && cand.Distance(r) < rules.ViaSpace {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// planExtension decides what metal (if any) the layer needs so the
// candidate cut is enclosed. Returns an empty rect when the existing
// same-net metal already covers a legal pad, the landing bar when an
// extension works, or ok=false when neither is legal.
func planExtension(cand, orig geom.Rect, net layout.NetID, t *tech.Tech, ml tech.Layer,
	rules tech.LayerRules, ix *geom.Index, nets []layout.NetID) (geom.Rect, bool) {

	var same []geom.Rect
	reach := rules.ViaEnclosure + t.Rules[ml].MinSpace
	ix.QueryFunc(cand.Union(orig).Bloat(reach), func(id int, r geom.Rect) bool {
		if nets[id] == net {
			same = append(same, r)
		}
		return true
	})
	covered := func(pad geom.Rect) bool { return geom.ClipArea(same, pad) == pad.Area() }
	if covered(cand.BloatXY(rules.ViaEnclosure, rules.ViaEncSide)) ||
		covered(cand.BloatXY(rules.ViaEncSide, rules.ViaEnclosure)) {
		return geom.Rect{}, true
	}

	// Landing bar: spans both cuts so it merges with the metal at the
	// original via, wide enough for the layer's minimum width and the
	// side enclosure, extended by the end enclosure at both ends.
	span := cand.Union(orig)
	horizontal := cand.Center().Y == orig.Center().Y
	width := rules.ViaSize + 2*rules.ViaEncSide
	if mw := t.Rules[ml].MinWidth; width < mw {
		width = mw
	}
	var bar geom.Rect
	if horizontal {
		extra := (width - span.Height()) / 2
		bar = span.BloatXY(rules.ViaEnclosure, extra)
	} else {
		extra := (width - span.Width()) / 2
		bar = span.BloatXY(extra, rules.ViaEnclosure)
	}
	// The bar must clear other nets' metal by the layer spacing.
	space := t.Rules[ml].MinSpace
	ok := true
	ix.QueryFunc(bar.Bloat(space), func(id int, r geom.Rect) bool {
		if nets[id] != net && bar.Distance(r) < space {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return geom.Rect{}, false
	}
	return bar, true
}

// YieldGain runs the before/after via-yield comparison for a layout.
type YieldGain struct {
	Before, After float64
	SinglesBefore int
	SinglesAfter  int
	PairsBefore   int
	PairsAfter    int
	AddedCuts     int
	Report        Report
}

// EvaluateInsertion inserts redundant vias and reports the via-yield
// movement and cost (added cuts; no metal is added by construction).
func EvaluateInsertion(ctx context.Context, flat []layout.Shape, t *tech.Tech) (YieldGain, error) {
	var g YieldGain
	g.SinglesBefore, g.PairsBefore = yieldpkg.CountViaRedundancy(flat, t)
	g.Before = yieldpkg.ViaYield(g.SinglesBefore, g.PairsBefore, t.Defects.ViaFailProb)

	var err error
	if g.Report, err = Insert(ctx, flat, t); err != nil {
		return YieldGain{}, err
	}
	after := append(append([]layout.Shape{}, flat...), g.Report.AddedShapes...)
	g.SinglesAfter, g.PairsAfter = yieldpkg.CountViaRedundancy(after, t)
	g.After = yieldpkg.ViaYield(g.SinglesAfter, g.PairsAfter, t.Defects.ViaFailProb)
	g.AddedCuts = g.Report.Inserted
	return g, nil
}
