package opc

import (
	"math"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

// Inverse lithography (ILT): instead of nudging polygon edges, treat
// the mask as a gray pixel field and run projected gradient descent on
// a print-fidelity cost, then binarize and vectorize. This is the
// "inverse vs. traditional OPC" comparison of the late-2000s
// literature: unconstrained inverse masks print better, at the price
// of mask complexity — which MRC simplification then claws back.
//
// Cost: hinge penalties demanding intensity above threshold+margin
// inside the target and below threshold-margin outside, restricted to
// a band around the drawn edges (deep interior/exterior is easy and
// would otherwise dominate the gradient).

// The inverse solver's settings, working values for the N45 optics.
// It solves at the nominal condition: no defocus, dose 1.
const (
	iltIterations = 60
	iltStep       = 4.0  // gradient step on the [0,1] mask field
	iltMargin     = 0.08 // intensity margin around the resist threshold
	iltBand       = 80   // cost band half-width around drawn edges, nm
	// iltMinFeature is the mask-rule minimum the binarized mask is
	// simplified to, nm.
	iltMinFeature = 40
)

// ILTResult carries the optimized mask and its convergence trace.
type ILTResult struct {
	Mask        []geom.Rect // binarized, MRC-simplified mask
	CostHistory []float64
}

// ILT runs the inverse solve for the drawn target inside the window.
func ILT(drawn []geom.Rect, window geom.Rect, opt tech.Optics) ILTResult {
	// Work on a padded grid so optics see context.
	maxSigma := 0.0
	for _, s := range opt.Sigmas {
		if s > maxSigma {
			maxSigma = s
		}
	}
	pad := int64(math.Ceil(3 * maxSigma))
	padded := window.Bloat(pad)

	m := litho.NewGrid(padded, opt.GridNM)
	m.Rasterize(drawn) // initialize at the drawn pattern

	// Inside/outside/band classification per pixel.
	inside := litho.NewGrid(padded, opt.GridNM)
	inside.Rasterize(drawn)
	band := litho.NewGrid(padded, opt.GridNM)
	bandRegion := bandAround(drawn, iltBand)
	band.Rasterize(bandRegion)

	var sigmas, weights []float64
	var wsum float64
	for i, s := range opt.Sigmas {
		sigmas = append(sigmas, s/opt.GridNM)
		weights = append(weights, opt.Weights[i])
		wsum += opt.Weights[i]
	}
	for i := range weights {
		weights[i] /= wsum
	}

	thHi := opt.Threshold + iltMargin
	thLo := opt.Threshold - iltMargin

	res := ILTResult{}
	for it := 0; it < iltIterations; it++ {
		// Forward: A = sum w_k G_k * m ; I = A^2.
		amp := blurStack(m, sigmas, weights)
		var cost float64
		// dJ/dI per pixel.
		dJdI := &litho.Grid{Origin: m.Origin, Pitch: m.Pitch, W: m.W, H: m.H, Data: make([]float64, len(m.Data))}
		for i := range m.Data {
			if band.Data[i] < 0.5 {
				continue
			}
			a := amp.Data[i]
			I := a * a
			if inside.Data[i] >= 0.5 {
				if v := thHi - I; v > 0 {
					cost += v * v
					dJdI.Data[i] = -2 * v
				}
			} else {
				if v := I - thLo; v > 0 {
					cost += v * v
					dJdI.Data[i] = 2 * v
				}
			}
		}
		res.CostHistory = append(res.CostHistory, cost)
		if it == iltIterations-1 {
			break
		}
		// Backward: dJ/dm = G * (dJ/dI * 2A) (Gaussians are
		// self-adjoint).
		for i := range dJdI.Data {
			dJdI.Data[i] *= 2 * amp.Data[i]
		}
		grad := blurStack(dJdI, sigmas, weights)
		for i := range m.Data {
			v := m.Data[i] - iltStep*grad.Data[i]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			m.Data[i] = v
		}
	}

	// Binarize at 0.5 and vectorize.
	bm := litho.NewBitmap(m.W, m.H)
	bm.Origin, bm.Pitch = m.Origin, m.Pitch
	for j := 0; j < m.H; j++ {
		for i, v := range m.Data[j*m.W : (j+1)*m.W] {
			bm.Set(i, j, v >= 0.5)
		}
	}
	// MRC simplification: remove slivers and close pinholes below the
	// mask-rule minimum.
	if r := int(iltMinFeature / opt.GridNM / 2); r >= 1 {
		bm = bm.Open(r).Close(r)
	}
	res.Mask = geom.Normalize(bm.ToRects())
	return res
}

// bandAround returns the region within +-half of the drawn boundary.
func bandAround(drawn []geom.Rect, half int64) []geom.Rect {
	out := geom.Dilate(drawn, half)
	in := geom.Erode(drawn, half)
	return geom.Subtract(out, in)
}

// blurStack applies the weighted Gaussian stack to a grid.
func blurStack(g *litho.Grid, sigmasPx, weights []float64) *litho.Grid {
	out := &litho.Grid{Origin: g.Origin, Pitch: g.Pitch, W: g.W, H: g.H, Data: make([]float64, len(g.Data))}
	for k, s := range sigmasPx {
		b := litho.GaussianBlur(g, s)
		w := weights[k]
		for i := range out.Data {
			out.Data[i] += w * b.Data[i]
		}
	}
	return out
}
