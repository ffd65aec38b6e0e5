package opc

import (
	"repro/internal/geom"
)

// Rule-based OPC: the 1996-era precursor to model-based correction. A
// fixed bias table keyed on the local environment is applied to every
// edge, and line ends get hammerhead extensions. Cheap, fast, and
// measurably worse than model-based — which is exactly the comparison
// experiment T3 runs.

// The rule-based bias table, calibrated for the N45 optics, nm.
const (
	ruleEdgeBias = 8 // uniform outward bias for feature edges
	// ruleDenseBias replaces ruleEdgeBias when another feature lies
	// within ruleDenseSpace of the edge (dense features print wider, so
	// they get less correction).
	ruleDenseBias  = 4
	ruleDenseSpace = 150
	ruleLineEndExt = 30 // outward extension of line ends (hammerhead stem)
	ruleLineEndMax = 90 // longest edge treated as a line end
)

// RuleBased applies the bias table and returns the corrected mask.
func RuleBased(drawn []geom.Rect) []geom.Rect {
	norm := geom.Normalize(drawn)
	ix := geom.IndexOf(1024, norm)

	frags := make([]*Fragment, 0, 64)
	for _, e := range geom.BoundaryEdges(norm) {
		f := &Fragment{Edge: e, Site: e.Midpoint()}
		switch {
		case e.Length() <= ruleLineEndMax:
			f.Bias = ruleLineEndExt
		case hasNeighbor(ix, norm, e, ruleDenseSpace):
			f.Bias = ruleDenseBias
		default:
			f.Bias = ruleEdgeBias
		}
		frags = append(frags, f)
	}
	return ApplyBias(norm, frags)
}

// hasNeighbor reports whether other geometry lies within dist outside
// the edge.
func hasNeighbor(ix *geom.Index, norm []geom.Rect, e geom.Edge, dist int64) bool {
	probe := extrude(e, dist)
	// Step the probe off the edge by 1nm so the feature itself does
	// not count.
	n := e.OutwardNormal()
	probe = probe.Translate(geom.Pt(n.X, n.Y))
	found := false
	ix.QueryFunc(probe, func(id int, r geom.Rect) bool {
		if r.Overlaps(probe) {
			found = true
			return false
		}
		return true
	})
	return found
}

// MRC (mask rule check) limits for corrected masks.
type MRC struct {
	MinFeature int64 // smallest legal mask feature dimension
	MinSpace   int64 // smallest legal mask gap
}

// MRCViolations reports where the mask violates mask manufacturing
// rules: features thinner than MinFeature or gaps tighter than
// MinSpace. (OPC must not emit an unmanufacturable mask; SRAFs are
// checked against the same limits.)
func (m MRC) MRCViolations(mask []geom.Rect) []geom.Rect {
	var out []geom.Rect
	norm := geom.Normalize(mask)
	if m.MinFeature > 1 {
		thin := geom.Subtract(norm, geom.Open(norm, m.MinFeature/2))
		out = append(out, thin...)
	}
	if m.MinSpace > 1 {
		pinchGaps := geom.Subtract(geom.Close(norm, m.MinSpace/2), norm)
		out = append(out, pinchGaps...)
	}
	return geom.Normalize(out)
}
