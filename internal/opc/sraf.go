package opc

import (
	"repro/internal/geom"
)

// Sub-resolution assist features: narrow bars placed next to isolated
// edges make the local environment look dense, stabilizing the main
// feature's CD through focus, while staying below the print threshold
// themselves. Insertion here is rule-based (distance/width/count
// tables), the production norm at 45nm; experiment F1 quantifies the
// process-window payoff.

// The N45 assist insertion rule table, nm.
const (
	srafWidth    = 35  // assist bar width (sub-resolution)
	srafDistance = 100 // edge-to-first-assist spacing
	srafPitch    = 130 // spacing between scatter bars (first-to-second)
	srafBars     = 2   // scatter bars per side where space allows
	srafMinSpan  = 150 // shortest edge that receives an assist
	// srafClearMargin is extra empty space required beyond the last bar.
	srafClearMargin = 60
)

// srafReach returns the outer extent of bar k (0-based) from the edge.
func srafReach(k int) int64 {
	return srafDistance + int64(k)*srafPitch + srafWidth
}

// InsertSRAF returns the assist bars for the drawn geometry (not
// including the drawn geometry itself). Each qualifying edge receives
// up to srafBars scatter bars; when the clear space fits only fewer
// bars, fewer are placed.
func InsertSRAF(drawn []geom.Rect) []geom.Rect {
	norm := geom.Normalize(drawn)
	ix := geom.IndexOf(1024, norm)

	clearTo := func(e geom.Edge, dist int64) bool {
		probe := extrude(e, dist)
		n := e.OutwardNormal()
		probe = probe.Translate(geom.Pt(n.X, n.Y))
		blocked := false
		ix.QueryFunc(probe, func(id int, r geom.Rect) bool {
			if r.Overlaps(probe) {
				blocked = true
				return false
			}
			return true
		})
		return !blocked
	}

	var assists []geom.Rect
	for _, e := range geom.BoundaryEdges(norm) {
		if e.Length() < srafMinSpan {
			continue
		}
		// Fit as many bars as the clear space allows.
		bars := 0
		for k := srafBars; k >= 1; k-- {
			if clearTo(e, srafReach(k-1)+srafClearMargin) {
				bars = k
				break
			}
		}
		for k := 0; k < bars; k++ {
			outer := extrude(e, srafReach(k))
			inner := extrude(e, srafDistance+int64(k)*srafPitch)
			assists = append(assists, geom.Subtract([]geom.Rect{outer}, []geom.Rect{inner})...)
		}
	}
	// Assists from facing isolated edges can land on each other; the
	// normalized union keeps the mask well-formed, and MRC checks
	// catch any resulting slivers.
	return geom.Normalize(assists)
}

// WithSRAF returns mask geometry plus its assists.
func WithSRAF(mask []geom.Rect) []geom.Rect {
	return geom.Union(mask, InsertSRAF(mask))
}
