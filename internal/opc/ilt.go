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

// ILTOpts configures the inverse solver.
type ILTOpts struct {
	Iterations int
	Step       float64 // gradient step on the [0,1] mask field
	Margin     float64 // intensity margin around the resist threshold
	Band       int64   // cost band half-width around drawn edges, nm
	Cond       litho.Condition
	// MRC simplification of the binarized mask.
	MinFeature int64
}

// DefaultILTOpts returns working defaults for the N45 optics.
func DefaultILTOpts() ILTOpts {
	return ILTOpts{
		Iterations: 60,
		Step:       4.0,
		Margin:     0.08,
		Band:       80,
		Cond:       litho.Nominal,
		MinFeature: 40,
	}
}

// ILTResult carries the optimized mask and its convergence trace.
type ILTResult struct {
	Mask        []geom.Rect // binarized, MRC-simplified mask
	CostHistory []float64
}

// ILT runs the inverse solve for the drawn target inside the window.
func ILT(drawn []geom.Rect, window geom.Rect, opt tech.Optics, io ILTOpts) ILTResult {
	if io.Iterations <= 0 {
		io.Iterations = 40
	}
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
	bandRegion := bandAround(drawn, io.Band)
	band.Rasterize(bandRegion)

	var sigmas, weights []float64
	var wsum float64
	for i, s := range opt.Sigmas {
		f := 1.0
		if opt.DefocusScale > 0 {
			f = math.Sqrt(1 + (io.Cond.Defocus/opt.DefocusScale)*(io.Cond.Defocus/opt.DefocusScale))
		}
		sigmas = append(sigmas, s*f/opt.GridNM)
		weights = append(weights, opt.Weights[i])
		wsum += opt.Weights[i]
	}
	for i := range weights {
		weights[i] /= wsum
	}

	thHi := opt.Threshold + io.Margin
	thLo := opt.Threshold - io.Margin

	res := ILTResult{}
	for it := 0; it < io.Iterations; it++ {
		// Forward: A = sum w_k G_k * m ; I = A^2 * dose.
		amp := blurStack(m, sigmas, weights)
		var cost float64
		// dJ/dI per pixel.
		dJdI := &litho.Grid{Origin: m.Origin, Pitch: m.Pitch, W: m.W, H: m.H, Data: make([]float64, len(m.Data))}
		for i := range m.Data {
			if band.Data[i] < 0.5 {
				continue
			}
			a := amp.Data[i]
			I := a * a * io.Cond.Dose
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
		if it == io.Iterations-1 {
			break
		}
		// Backward: dJ/dm = G * (dJ/dI * 2A * dose) (Gaussians are
		// self-adjoint).
		for i := range dJdI.Data {
			dJdI.Data[i] *= 2 * amp.Data[i] * io.Cond.Dose
		}
		grad := blurStack(dJdI, sigmas, weights)
		for i := range m.Data {
			v := m.Data[i] - io.Step*grad.Data[i]
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
	if io.MinFeature > 1 {
		r := int(float64(io.MinFeature) / opt.GridNM / 2)
		if r >= 1 {
			bm = bm.Open(r).Close(r)
		}
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
