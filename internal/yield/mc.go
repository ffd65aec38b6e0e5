package yield

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Monte Carlo defect injection: throw particles with the size
// distribution onto the layout and test each for a short (overlaps two
// nets) or an open (spans a wire's full width). Validates the
// analytic critical-area numbers and powers failure-injection tests.

// MCResult summarizes one Monte Carlo run.
type MCResult struct {
	Trials int
	Shorts int
	Opens  int
	// ShortCA and OpenCA are the Monte Carlo estimates of the
	// size-distribution-averaged critical area in nm^2:
	// (hits / trials) x throw area. They converge to the analytic
	// AvgCriticalArea of the matching failure mode.
	ShortCA float64
	OpenCA  float64
}

// MonteCarlo throws trials defects uniformly over the layer's bounding
// box (bloated by the max defect size) and classifies each.
func MonteCarlo(flat []layout.Shape, layer tech.Layer, def tech.Defects, trials int, rnd *rand.Rand) MCResult {
	d := SizeDist{X0: def.X0, XMax: def.XMax}
	nets := layout.NetsOn(flat, layer)
	ids := layout.SortedNets(nets)

	var bb geom.Rect
	for _, id := range ids {
		bb = bb.Union(geom.BBoxOf(nets[id]))
	}
	if bb.Empty() || trials <= 0 {
		return MCResult{}
	}

	// Spatial index with parallel net ids.
	ix := geom.NewIndex(bb, 2048)
	var rectNet []layout.NetID
	for _, id := range ids {
		for _, r := range nets[id] {
			ix.Insert(r)
			rectNet = append(rectNet, id)
		}
	}
	area := bb.Bloat(int64(def.XMax / 2))

	res := MCResult{Trials: trials}
	for t := 0; t < trials; t++ {
		size := int64(d.Sample(rnd))
		cx := area.X0 + rnd.Int63n(area.Width())
		cy := area.Y0 + rnd.Int63n(area.Height())
		defect := geom.R(cx-size/2, cy-size/2, cx+size/2, cy+size/2)

		touched := make(map[layout.NetID]struct{})
		opened := false
		ix.QueryFunc(defect, func(id int, r geom.Rect) bool {
			if !r.Overlaps(defect) {
				return true
			}
			n := rectNet[id]
			if n != layout.NoNet {
				touched[n] = struct{}{}
			}
			// Open: the defect spans the wire's narrow dimension.
			if r.MinDim() == r.Width() { // vertical wire
				if defect.X0 <= r.X0 && defect.X1 >= r.X1 &&
					defect.Y0 < r.Y1 && defect.Y1 > r.Y0 {
					opened = true
				}
			} else {
				if defect.Y0 <= r.Y0 && defect.Y1 >= r.Y1 &&
					defect.X0 < r.X1 && defect.X1 > r.X0 {
					opened = true
				}
			}
			return true
		})
		if len(touched) >= 2 {
			res.Shorts++
		}
		if opened {
			res.Opens++
		}
	}
	// Each trial samples a uniform location over the throw area, so
	// hits/trials estimates (critical area / throw area); multiplying
	// by the throw area recovers the critical area itself.
	throw := float64(area.Area())
	res.ShortCA = float64(res.Shorts) / float64(trials) * throw
	res.OpenCA = float64(res.Opens) / float64(trials) * throw
	return res
}
