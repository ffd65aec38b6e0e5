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
// bars, fewer are placed. An edge of a feature no wider than an assist
// bar somewhere along it does not qualify: that feature is an assist
// already, so a mask that holds its assists gets no more
// (WithSRAF(WithSRAF(m)) is WithSRAF(m)).
func InsertSRAF(drawn []geom.Rect) []geom.Rect {
	norm := geom.Normalize(drawn)
	layer := geom.BandedOf(norm)

	var assists []geom.Rect
	for _, e := range geom.BoundaryEdges(norm) {
		if e.Length() < srafMinSpan {
			continue
		}
		if inside := extrude(e, -(srafWidth + 1)); layer.ClipArea(inside) < inside.Area() {
			continue
		}
		// Fit as many bars as the clear space allows.
		bars := 0
		for k := srafBars; k >= 1; k-- {
			if layer.ClipArea(outwardProbe(e, srafReach(k-1)+srafClearMargin)) == 0 {
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
