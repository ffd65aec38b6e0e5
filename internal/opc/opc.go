// Package opc implements optical proximity correction and its
// companions: edge fragmentation, the model-based simulate-then-move
// feedback loop, rule-based bias correction, sub-resolution assist
// feature (SRAF) insertion, and mask-rule checking (MRC). Together with
// the litho package this reproduces the RET/OPC toolchain whose value
// the DFM panel debates.
package opc

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/tech"
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

	cPWRuns  = obs.C("opc.pw.runs")
	cPWIters = obs.C("opc.pw.iterations")
	cPWMoves = obs.C("opc.pw.fragment.moves")
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

// The rest of the loop's settings. It corrects at the nominal
// condition; ProcessWindowOPC is the one that looks off it.
const (
	modelGain         = 0.6 // feedback gain on EPE, typically 0.5-0.8
	modelMaxBias      = 40  // MRC clamp on fragment movement, nm
	modelMinMaskSpace = 40  // smallest legal mask gap; caps outward bias
	modelCornerLen    = 40  // corner fragment length
)

// capOutward fills every fragment's MaxOut from the gap to its nearest
// outward neighbor, so the feedback loop cannot bridge the mask.
func capOutward(drawn []geom.Rect, frags []*Fragment) {
	norm := geom.Normalize(drawn)
	ix := geom.IndexOf(1024, norm)
	const probeDist int64 = 2*modelMaxBias + modelMinMaskSpace + 10
	for _, f := range frags {
		f.MaxOut = modelMaxBias
		probe := extrude(f.Edge, probeDist)
		n := f.Edge.OutwardNormal()
		probe = probe.Translate(geom.Pt(n.X, n.Y))
		edgeRect := geom.R(f.Edge.P0.X, f.Edge.P0.Y, f.Edge.P1.X, f.Edge.P1.Y)
		minGap := probeDist + 1
		ix.QueryFunc(probe, func(id int, r geom.Rect) bool {
			if !r.Overlaps(probe) {
				return true
			}
			if g := edgeRect.Distance(r); g > 0 && g < minGap {
				minGap = g
			}
			return true
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
	// uncorrected mask).
	RMSHistory []float64
}

// ModelBased runs the simulate-then-move loop: each iteration
// simulates the current mask, measures EPE at every fragment's control
// site against the drawn target, and moves the fragment against the
// error. Window is the simulation region (drawn geometry plus optical
// ambit).
func ModelBased(drawn []geom.Rect, window geom.Rect, opt tech.Optics, mo ModelOpts) Result {
	res, _ := ModelBasedCtx(context.Background(), drawn, window, opt, mo)
	return res
}

// ModelBasedCtx is ModelBased with a cancellation checkpoint per
// feedback iteration (and per blur pass inside each simulation). On
// cancellation it returns the best mask so far alongside the context
// error, so callers can distinguish a converged result from an
// interrupted one.
func ModelBasedCtx(ctx context.Context, drawn []geom.Rect, window geom.Rect, opt tech.Optics, mo ModelOpts) (Result, error) {
	sp := hModelNS.Start()
	defer sp.End()
	cModelRuns.Inc()
	frags := FragmentEdges(drawn, mo.MaxLen, modelCornerLen)
	capOutward(drawn, frags)
	res := Result{Fragments: frags}

	// Nothing of an iteration's image outlives the EPEs read from it
	// below, so each is rendered over the one before.
	var grid *litho.Grid
	for it := 0; it <= mo.Iterations; it++ {
		mask := ApplyBias(drawn, frags)
		img, err := litho.SimulateInto(ctx, grid, mask, window, opt, litho.Nominal)
		if err != nil {
			return res, err
		}
		grid = img.Grid
		cModelIters.Inc()
		var sq float64
		var moved int64
		n := 0
		for _, f := range frags {
			s := img.EPEAt(f.Edge, f.Site)
			sq += s.EPE * s.EPE
			n++
			if it < mo.Iterations {
				// Move against the error; clamp to mask rules.
				prev := f.Bias
				f.Bias -= int64(modelGain * s.EPE)
				if f.Bias > f.MaxOut {
					f.Bias = f.MaxOut
				}
				if f.Bias < -modelMaxBias {
					f.Bias = -modelMaxBias
				}
				if f.Bias != prev {
					moved++
				}
			}
		}
		cModelMoves.Add(moved)
		rms := 0.0
		if n > 0 {
			rms = math.Sqrt(sq / float64(n))
		}
		res.RMSHistory = append(res.RMSHistory, rms)
		res.Mask = mask
	}
	if len(res.RMSHistory) > 0 {
		gModelRMS.Set(res.RMSHistory[len(res.RMSHistory)-1])
	}
	return res, nil
}
