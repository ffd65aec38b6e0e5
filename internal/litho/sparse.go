package litho

import (
	"context"
	"math"

	"repro/internal/geom"
)

// Sparse separable convolution: the exact Gaussian blur of a rect-set
// coverage raster, computed per rect instead of per pixel.
//
// Grid.paint gives each rect a separable coverage footprint
// cov(i, j) = cx(i) · cy(j) (the 1-D pixel-overlap fractions), and the
// Gaussian kernel is itself separable, so for a normalized (disjoint)
// rect set
//
//	G ⊛ coverage = Σ_rects (g ⊛ cx) ⊗ (g ⊛ cy)
//
// with no approximation: the dense raster-then-blur path computes the
// same discrete sums in a different order, so results agree to FP
// rounding (~1e-15). Each 1-D profile g ⊛ cx is evaluated in O(1) per
// pixel from the kernel's prefix sums — cx is the difference of two
// unit steps with one fractional edge pixel, and a step convolved with
// g is the kernel CDF — so a rect costs O((rw+2r)·(rh+2r)) against the
// dense path's 2·W·H·(2r+1) per kernel pass. For block-scale masks
// under production kernels that is an order of magnitude fewer
// floating-point ops, and the raster itself need never be built.

// stepConv returns (g ⊛ F)(i) where F is the smoothed unit step of the
// continuous boundary a = m + (1 - frac): F(i) = 0 for i < m,
// frac at i = m, 1 for i > m. Convolving the integer part with g gives
// the kernel CDF; the fractional pixel adds frac·kern.
func stepConv(i, m, r int, frac float64, kern, cdf []float64) float64 {
	var v float64
	if t := i - m - 1 + r; t >= 0 {
		if t >= len(cdf) {
			v = cdf[len(cdf)-1]
		} else {
			v = cdf[t]
		}
	}
	if t := i - m + r; t >= 0 && t < len(kern) {
		v += frac * kern[t]
	}
	return v
}

// rectProfile fills prof[idx] = (g ⊛ cx)(lo+idx) for the 1-D coverage
// cx of the continuous pixel-space span [a0, a1). The span must
// already be clipped to the grid so the zero boundary condition
// matches the dense path.
func rectProfile(prof []float64, lo int, a0, a1 float64, kern, cdf []float64) {
	r := len(kern) / 2
	mL := int(math.Floor(a0))
	fL := float64(mL+1) - a0
	mR := int(math.Floor(a1))
	fR := float64(mR+1) - a1
	for idx := range prof {
		i := lo + idx
		prof[idx] = stepConv(i, mL, r, fL, kern, cdf) - stepConv(i, mR, r, fR, kern, cdf)
	}
}

// sparseBlurAcc accumulates amp += weight · (g ⊛ coverage(norm)) for
// one kernel, walking rects instead of pixels. norm must be disjoint
// (geom.Normalize form); padded/pitch/w/h describe the raster grid amp
// is laid out on. The two profile rows are a plain allocation: the
// buffer free list is sized for raster-scale buffers, and a row-sized
// request would either evict one or borrow it.
func sparseBlurAcc(ctx context.Context, norm []geom.Rect, padded geom.Rect, pitch float64, w, h int, kern, cdf []float64, weight float64, amp []float64) error {
	r := len(kern) / 2
	ox := float64(padded.X0)
	oy := float64(padded.Y0)
	prof := make([]float64, w+h)
	px, py := prof[:w], prof[w:]
	for ri, rc := range norm {
		if ri&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Continuous pixel-space span, clipped to the grid exactly as
		// Grid.paint clamps its pixel loops.
		x0 := (float64(rc.X0) - ox) / pitch
		x1 := (float64(rc.X1) - ox) / pitch
		y0 := (float64(rc.Y0) - oy) / pitch
		y1 := (float64(rc.Y1) - oy) / pitch
		if x0 < 0 {
			x0 = 0
		}
		if y0 < 0 {
			y0 = 0
		}
		if x1 > float64(w) {
			x1 = float64(w)
		}
		if y1 > float64(h) {
			y1 = float64(h)
		}
		if x1 <= x0 || y1 <= y0 {
			continue
		}
		lox := int(math.Floor(x0)) - r
		if lox < 0 {
			lox = 0
		}
		hix := int(math.Floor(x1)) + r + 1
		if hix > w {
			hix = w
		}
		loy := int(math.Floor(y0)) - r
		if loy < 0 {
			loy = 0
		}
		hiy := int(math.Floor(y1)) + r + 1
		if hiy > h {
			hiy = h
		}
		if hix <= lox || hiy <= loy {
			continue
		}
		profX := px[:hix-lox]
		profY := py[:hiy-loy]
		rectProfile(profX, lox, x0, x1, kern, cdf)
		rectProfile(profY, loy, y0, y1, kern, cdf)
		for j, pv := range profY {
			c := weight * pv
			if c == 0 {
				continue
			}
			row := amp[(loy+j)*w+lox : (loy+j)*w+hix]
			for i, xv := range profX {
				row[i] += c * xv
			}
		}
	}
	return nil
}
