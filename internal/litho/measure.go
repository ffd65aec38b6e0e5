package litho

import (
	"math"

	"repro/internal/geom"
)

// Metrology on simulated images: threshold-crossing CD measurement
// with subpixel interpolation, and edge-placement error against drawn
// edges. This is the "design-driven metrology" surface: measurements
// are taken at drawn-layout-derived coordinates.

// crossing finds the threshold crossing between two sample positions
// (x0 has value v0, x1 has v1), by linear interpolation. Returns the
// interpolated coordinate.
func crossing(x0, v0, x1, v1, th float64) float64 {
	if v1 == v0 {
		return (x0 + x1) / 2
	}
	t := (th - v0) / (v1 - v0)
	return x0 + t*(x1-x0)
}

// CDAt measures the printed critical dimension through the point
// (x, y), scanning along the x axis when horizontal is true (measuring
// the width of a vertical feature) or along y otherwise. The point
// must print; otherwise ok is false.
func (im *Image) CDAt(x, y float64, horizontal bool) (cd float64, ok bool) {
	if !im.PrintsAt(x, y) {
		return 0, false
	}
	step := im.Pitch / 2
	lo := im.scanToEdge(x, y, -step, horizontal)
	hi := im.scanToEdge(x, y, +step, horizontal)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, false
	}
	return hi - lo, true
}

// scanToEdge walks from (x, y) in the given direction until the image
// drops below threshold and returns the interpolated edge coordinate
// (along the scan axis). Returns NaN if no edge is found within the
// grid.
func (im *Image) scanToEdge(x, y, step float64, horizontal bool) float64 {
	limit := float64(im.W) * im.Pitch
	if !horizontal {
		limit = float64(im.H) * im.Pitch
	}
	prevPos := 0.0
	prevVal := im.sample(x, y)
	for d := step; math.Abs(d) <= limit; d += step {
		var v float64
		if horizontal {
			v = im.sample(x+d, y)
		} else {
			v = im.sample(x, y+d)
		}
		if v < im.Threshold {
			base := x
			if !horizontal {
				base = y
			}
			return crossing(base+prevPos, prevVal, base+d, v, im.Threshold)
		}
		prevPos, prevVal = d, v
	}
	return math.NaN()
}

// EPESample is one edge-placement-error measurement.
type EPESample struct {
	At      geom.Point // measurement site on the drawn edge
	Drawn   geom.Edge
	EPE     float64 // signed nm: positive = printed edge outside drawn
	Printed bool    // whether the interior side prints at all
}

// EPEAt measures the signed edge placement error at a point on a drawn
// edge: the distance from the drawn edge to the printed contour along
// the outward normal (positive when the resist edge lies outside the
// drawn edge, negative for pullback). The scan starts deep inside the
// feature so large pullbacks (line-end retraction) are measured rather
// than misreported as missing.
func (im *Image) EPEAt(e geom.Edge, at geom.Point) EPESample {
	n := e.OutwardNormal()
	x, y := float64(at.X), float64(at.Y)
	s := EPESample{At: at, Drawn: e}
	step := im.Pitch / 2
	val := func(d float64) float64 {
		return im.sample(x+float64(n.X)*d, y+float64(n.Y)*d)
	}
	// Find the printing point nearest the drawn edge on the inward
	// side (the scan start). Narrow features stay measurable because
	// we stop at the first printing sample.
	start := 0.0
	for val(start) < im.Threshold {
		start -= step
		if start < -edgeSearchLimit {
			// Nothing prints within reach: the feature is lost here.
			s.EPE = -edgeSearchLimit
			return s
		}
	}
	s.Printed = true
	prevPos, prevVal := start, val(start)
	for d := start + step; d <= edgeSearchLimit; d += step {
		v := val(d)
		if v < im.Threshold {
			s.EPE = crossing(prevPos, prevVal, d, v, im.Threshold)
			return s
		}
		prevPos, prevVal = d, v
	}
	s.EPE = edgeSearchLimit // bridged outward beyond the search range
	return s
}

// edgeSearchLimit caps EPE searches, nm.
const edgeSearchLimit = 200.0

// EPEStats summarizes a set of EPE samples.
type EPEStats struct {
	N      int
	Mean   float64
	RMS    float64
	MaxAbs float64
	Lost   int // sites where the feature failed to print
}

// SummarizeEPE computes aggregate statistics.
func SummarizeEPE(samples []EPESample) EPEStats {
	var st EPEStats
	if len(samples) == 0 {
		return st
	}
	var sum, sq float64
	for _, s := range samples {
		st.N++
		if !s.Printed {
			st.Lost++
		}
		sum += s.EPE
		sq += s.EPE * s.EPE
		if a := math.Abs(s.EPE); a > st.MaxAbs {
			st.MaxAbs = a
		}
	}
	st.Mean = sum / float64(st.N)
	st.RMS = math.Sqrt(sq / float64(st.N))
	return st
}

// EdgeSites returns measurement sites along the drawn edges of a
// layout: the midpoint of every boundary edge, plus extra samples
// every maxSpacing nm on long edges. These are the canonical
// design-driven metrology coordinates.
func EdgeSites(rs []geom.Rect, maxSpacing int64) []struct {
	Edge geom.Edge
	At   geom.Point
} {
	var out []struct {
		Edge geom.Edge
		At   geom.Point
	}
	for _, e := range geom.BoundaryEdges(rs) {
		n := int(e.Length()/maxSpacing) + 1
		for k := 0; k < n; k++ {
			// Place samples at the centers of n equal sub-segments.
			f := (2*int64(k) + 1)
			var at geom.Point
			if e.Horizontal() {
				at = geom.Pt(e.P0.X+f*e.Length()/(2*int64(n)), e.P0.Y)
			} else {
				at = geom.Pt(e.P0.X, e.P0.Y+f*e.Length()/(2*int64(n)))
			}
			out = append(out, struct {
				Edge geom.Edge
				At   geom.Point
			}{e, at})
		}
	}
	return out
}

// MeasureEPE runs EPE metrology at every edge site of the drawn
// geometry against the image.
func (im *Image) MeasureEPE(drawn []geom.Rect, maxSpacing int64) []EPESample {
	sites := EdgeSites(drawn, maxSpacing)
	out := make([]EPESample, 0, len(sites))
	for _, s := range sites {
		out = append(out, im.EPEAt(s.Edge, s.At))
	}
	return out
}
