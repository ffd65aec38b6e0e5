// Package opc implements optical proximity correction and its
// companions: edge fragmentation, the model-based simulate-then-move
// feedback loop, rule-based bias correction, sub-resolution assist
// feature (SRAF) insertion, and mask-rule checking (MRC). Together with
// the litho package this reproduces the RET/OPC toolchain whose value
// the DFM panel debates.
package opc

import (
	"context"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/obs"
)

// OPC loop instrumentation: runs and iterations spent (convergence
// cost), fragments actually moved per iteration (correction
// activity), and the final RMS EPE of the last completed run.
var (
	cModelRuns  = obs.C("opc.model.runs")
	cModelIters = obs.C("opc.model.iterations")
	cModelMoves = obs.C("opc.fragment.moves")
	gModelRMS   = obs.G("opc.model.final_rms")
	hModelNS    = obs.H("opc.model.ns")
)

// Fragment is one movable edge segment with its current bias along the
// outward normal (positive = moved outward).
type Fragment struct {
	Edge geom.Edge  // the drawn sub-edge this fragment controls
	Site geom.Point // EPE control site (fragment midpoint)
	Bias int64      // nm along the outward normal
	// MaxOut caps outward movement so facing edges never bridge the
	// mask: (gap to nearest neighbor - min mask space) / 2.
	MaxOut int64
}

// FragmentEdges cuts the drawn geometry's boundary into fragments:
// edges longer than maxLen are subdivided; ends of long edges get
// short corner fragments (cornerLen) so corners can be corrected
// independently of the edge body — the standard OPC fragmentation
// scheme.
func FragmentEdges(drawn []geom.Rect, maxLen, cornerLen int64) []*Fragment {
	if maxLen <= 0 {
		maxLen = 120
	}
	if cornerLen <= 0 || cornerLen >= maxLen {
		cornerLen = maxLen / 3
	}
	var out []*Fragment
	for _, e := range geom.BoundaryEdges(drawn) {
		L := e.Length()
		var cuts []int64 // fragment lengths along the edge
		switch {
		case L <= 2*cornerLen:
			cuts = []int64{L}
		default:
			body := L - 2*cornerLen
			n := (body + maxLen - 1) / maxLen
			cuts = append(cuts, cornerLen)
			for i := int64(0); i < n; i++ {
				seg := body / n
				if i < body%n {
					seg++
				}
				cuts = append(cuts, seg)
			}
			cuts = append(cuts, cornerLen)
		}
		pos := int64(0)
		for _, c := range cuts {
			if c <= 0 {
				continue
			}
			sub := subEdge(e, pos, pos+c)
			out = append(out, &Fragment{
				Edge: sub,
				Site: sub.Midpoint(),
			})
			pos += c
		}
	}
	return out
}

// subEdge returns the [a, b] segment of the edge measured from P0.
func subEdge(e geom.Edge, a, b int64) geom.Edge {
	if e.Horizontal() {
		return geom.Edge{
			P0:       geom.Pt(e.P0.X+a, e.P0.Y),
			P1:       geom.Pt(e.P0.X+b, e.P0.Y),
			Interior: e.Interior,
		}
	}
	return geom.Edge{
		P0:       geom.Pt(e.P0.X, e.P0.Y+a),
		P1:       geom.Pt(e.P0.X, e.P0.Y+b),
		Interior: e.Interior,
	}
}

// outwardProbe is the strip dist deep outside e, stepped 1 nm off it so
// that the feature e bounds does not count: other geometry lies within
// dist outside e when it overlaps the probe with positive area. Abutting
// the probe, along its far side or at its ends, is not enough.
func outwardProbe(e geom.Edge, dist int64) geom.Rect {
	n := e.OutwardNormal()
	return extrude(e, dist).Translate(geom.Pt(n.X, n.Y))
}

// extrude returns the rect swept by moving the edge outward (d > 0) or
// the strip just inside the edge (d < 0).
func extrude(e geom.Edge, d int64) geom.Rect {
	n := e.OutwardNormal()
	if e.Horizontal() {
		y := e.P0.Y
		if n.Y > 0 {
			if d > 0 {
				return geom.R(e.P0.X, y, e.P1.X, y+d)
			}
			return geom.R(e.P0.X, y+d, e.P1.X, y)
		}
		if d > 0 {
			return geom.R(e.P0.X, y-d, e.P1.X, y)
		}
		return geom.R(e.P0.X, y, e.P1.X, y-d)
	}
	x := e.P0.X
	if n.X > 0 {
		if d > 0 {
			return geom.R(x, e.P0.Y, x+d, e.P1.Y)
		}
		return geom.R(x+d, e.P0.Y, x, e.P1.Y)
	}
	if d > 0 {
		return geom.R(x-d, e.P0.Y, x, e.P1.Y)
	}
	return geom.R(x, e.P0.Y, x-d, e.P1.Y)
}

// ApplyBias builds the corrected mask: the drawn geometry plus the
// outward-biased strips minus the inward-biased strips of every
// fragment.
func ApplyBias(drawn []geom.Rect, frags []*Fragment) []geom.Rect {
	var add, sub []geom.Rect
	for _, f := range frags {
		switch {
		case f.Bias > 0:
			add = append(add, extrude(f.Edge, f.Bias))
		case f.Bias < 0:
			sub = append(sub, extrude(f.Edge, f.Bias))
		}
	}
	mask := geom.Union(drawn, add)
	if len(sub) > 0 {
		mask = geom.Subtract(mask, sub)
	}
	return mask
}

// ModelOpts configures the model-based OPC loop: the two settings the
// ablation experiments sweep.
type ModelOpts struct {
	Iterations int
	MaxLen     int64 // fragment length
}

// DefaultModelOpts returns production-flavored defaults.
func DefaultModelOpts() ModelOpts {
	return ModelOpts{Iterations: 5, MaxLen: 120}
}

// The rest of the loop's settings.
const (
	modelGain         = 0.6 // feedback gain on EPE, typically 0.5-0.8
	modelMaxBias      = 40  // MRC clamp on fragment movement, nm
	modelMinMaskSpace = 40  // smallest legal mask gap; caps outward bias
	modelCornerLen    = 40  // corner fragment length
)

// capOutward fills every fragment's MaxOut from the gap to its nearest
// outward neighbor, so the feedback loop cannot bridge the mask.
func capOutward(drawn []geom.Rect, frags []*Fragment) {
	layer := geom.BandedOf(geom.Normalize(drawn))
	const probeDist int64 = 2*modelMaxBias + modelMinMaskSpace + 10
	for _, f := range frags {
		f.MaxOut = modelMaxBias
		probe := outwardProbe(f.Edge, probeDist)
		edgeRect := geom.R(f.Edge.P0.X, f.Edge.P0.Y, f.Edge.P1.X, f.Edge.P1.Y)
		minGap := probeDist + 1
		layer.Near(probe, func(_ int, r geom.Rect) {
			// Near is touch-inclusive: a rect abutting the probe is not in it.
			if !r.Overlaps(probe) {
				return
			}
			if g := edgeRect.Distance(r); g > 0 && g < minGap {
				minGap = g
			}
		})
		if minGap <= probeDist {
			lim := (minGap - modelMinMaskSpace) / 2
			if lim < 0 {
				lim = 0
			}
			if lim < f.MaxOut {
				f.MaxOut = lim
			}
		}
	}
}

// Result carries a corrected mask and its convergence history.
type Result struct {
	Mask      []geom.Rect
	Fragments []*Fragment
	// RMSHistory is the RMS EPE after each iteration (index 0 = the
	// uncorrected mask), averaged over the corners by their weights.
	RMSHistory []float64
	// Image is Mask simulated at the first corner (litho.Nominal for
	// ModelBased) over the loop's window: the last iteration's image,
	// which its final RMS was read from, so a caller measuring the
	// corrected mask there need not render it again. Set only when the
	// loop completes; it lives in the caller's handle and is valid
	// until that handle's next Remask.
	Image *litho.Image
}

// ModelBased runs the simulate-then-move loop at the nominal
// condition: ProcessWindowOPC at the one corner {litho.Nominal, 1},
// whose EPEs and RMS are then exactly the nominal image's, rendered
// through rm. Window is the simulation region (drawn geometry plus
// optical ambit).
func ModelBased(ctx context.Context, drawn []geom.Rect, window geom.Rect, rm *litho.RasterMask, mo ModelOpts) (Result, error) {
	return ProcessWindowOPC(ctx, drawn, window, rm, mo, []PWCorner{{Cond: litho.Nominal, Weight: 1}})
}
