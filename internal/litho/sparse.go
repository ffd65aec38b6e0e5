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

// pxSpan is a rect's continuous pixel-space extent on a w x h raster
// grid, clipped to the grid exactly as Grid.paint clamps its pixel
// loops so the zero boundary condition matches the dense path.
type pxSpan struct{ x0, x1, y0, y1 float64 }

// clipSpans converts norm to pixel space on the w x h grid whose
// lower-left corner is padded's, in order, dropping rects the grid
// clips to nothing. It depends on neither kernel nor band, so a render
// pays its four divisions per rect once.
func clipSpans(norm []geom.Rect, padded geom.Rect, pitch float64, w, h int) []pxSpan {
	ox := float64(padded.X0)
	oy := float64(padded.Y0)
	spans := make([]pxSpan, 0, len(norm))
	for _, rc := range norm {
		s := pxSpan{
			x0: max((float64(rc.X0)-ox)/pitch, 0),
			x1: min((float64(rc.X1)-ox)/pitch, float64(w)),
			y0: max((float64(rc.Y0)-oy)/pitch, 0),
			y1: min((float64(rc.Y1)-oy)/pitch, float64(h)),
		}
		if s.x1 > s.x0 && s.y1 > s.y0 {
			spans = append(spans, s)
		}
	}
	return spans
}

// sparseBlurAcc accumulates band += weight · (g ⊛ coverage(spans)) for
// one kernel over rows [j0, j1) of the w-wide raster grid the spans
// were clipped to, walking rects instead of pixels: band holds those
// rows only, row j at band[(j-j0)*w:]. spans must come from a disjoint
// rect set (geom.Normalize form). A pixel receives the same additions
// in the same order whatever band it is computed in — a rect's row and
// column profiles do not depend on the range asked for — so a grid
// rendered in bands equals the grid rendered whole bit for bit. What a
// band costs extra is the column profile, recomputed for every band a
// rect's footprint reaches.
//
// Every column it adds to is marked in touched, one entry per group of
// 64 columns ((w+63)/64 of them): a column whose group is still
// unmarked holds whatever the band held on entry, in every row. The
// marks are per band, not per row, and only ever set here.
//
// prof is scratch for the two profiles, at least w + (j1 - j0) long.
// It is the caller's plain allocation, not the free list's: the list
// is sized for band-scale buffers, and a row-sized request would
// either evict one or borrow it.
func sparseBlurAcc(ctx context.Context, spans []pxSpan, w, j0, j1 int, kern, cdf []float64, weight float64, band, prof []float64, touched []bool) error {
	r := len(kern) / 2
	px, py := prof[:w], prof[w:]
	for si, s := range spans {
		if si&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Most rects miss most bands: reject on rows first.
		loy := max(int(math.Floor(s.y0))-r, j0)
		hiy := min(int(math.Floor(s.y1))+r+1, j1)
		if hiy <= loy {
			continue
		}
		lox := max(int(math.Floor(s.x0))-r, 0)
		hix := min(int(math.Floor(s.x1))+r+1, w) // > lox: the span is non-empty inside [0, w]
		for g := lox >> 6; g <= (hix-1)>>6; g++ {
			touched[g] = true
		}
		profX := px[:hix-lox]
		profY := py[:hiy-loy]
		rectProfile(profX, lox, s.x0, s.x1, kern, cdf)
		rectProfile(profY, loy, s.y0, s.y1, kern, cdf)
		for j, pv := range profY {
			c := weight * pv
			if c == 0 {
				continue
			}
			at := (loy+j-j0)*w + lox
			row := band[at : at+len(profX)]
			for i, xv := range profX {
				row[i] += c * xv
			}
		}
	}
	return nil
}
