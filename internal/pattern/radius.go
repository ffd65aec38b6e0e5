package pattern

import (
	"repro/internal/geom"
)

// Pattern context-radius optimization (the "pattern association tree"
// methodology): a pattern's window radius trades sensitivity against
// specificity. Too small and clean layout matches hotspot classes
// (false alarms); too large and every occurrence is unique (no
// generalization). OptimizeRadius sweeps candidate radii, measures
// the hot/clean class separation at each, and returns the smallest
// radius that achieves the best achievable false rate.

// RadiusEval is the separation quality at one radius.
type RadiusEval struct {
	Radius     int64
	HotClasses int // distinct classes over hotspot anchors
	Ambiguous  int // classes that also occur at clean anchors
	// FalseRate is the fraction of clean anchors whose pattern falls
	// into a hotspot class: the false-alarm rate of an exact-match
	// deck built at this radius.
	FalseRate float64
}

// OptimizeRadius evaluates the candidate radii for the layer geometry
// with labeled hotspot and clean anchors, returning the per-radius
// evaluations (in input order) and the chosen radius.
func OptimizeRadius(rs []geom.Rect, hot, clean []geom.Point, radii []int64) ([]RadiusEval, int64) {
	norm := geom.Normalize(rs)
	if len(radii) == 0 {
		return nil, 0
	}
	maxR := radii[0]
	for _, r := range radii {
		if r > maxR {
			maxR = r
		}
	}
	ix := geom.IndexOf(4*maxR, norm)

	evals := make([]RadiusEval, 0, len(radii))
	for _, r := range radii {
		hotClasses := make(map[uint64]struct{})
		for _, a := range hot {
			hotClasses[ExtractAtIndexed(ix, a, r).CanonHash()] = struct{}{}
		}
		ambiguous := make(map[uint64]struct{})
		falses := 0
		for _, a := range clean {
			h := ExtractAtIndexed(ix, a, r).CanonHash()
			if _, bad := hotClasses[h]; bad {
				falses++
				ambiguous[h] = struct{}{}
			}
		}
		ev := RadiusEval{Radius: r, HotClasses: len(hotClasses), Ambiguous: len(ambiguous)}
		if len(clean) > 0 {
			ev.FalseRate = float64(falses) / float64(len(clean))
		}
		evals = append(evals, ev)
	}

	// Choose the smallest radius achieving the minimum false rate.
	best := evals[0]
	for _, ev := range evals[1:] {
		if ev.FalseRate < best.FalseRate ||
			(ev.FalseRate == best.FalseRate && ev.Radius < best.Radius) {
			best = ev
		}
	}
	return evals, best.Radius
}
