package litho

import (
	"context"
	"math"

	"repro/internal/geom"
)

// Sparse separable convolution: the exact Gaussian blur of a rect-set
// coverage raster, computed per y-band cluster of rects instead of per
// pixel.
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
// g is the kernel CDF.
//
// In normal form the rects of a y-band share y0 and y1, so they share
// the row profile g ⊛ cy, and the sum factors once more:
//
//	Σ_band (g ⊛ cx) ⊗ (g ⊛ cy) = (Σ_band g ⊛ cx) ⊗ (g ⊛ cy)
//
// A band's column profiles are summed into one accumulator, footprints
// that overlap or touch merge into a cluster, and each cluster is one
// rank-1 update of the raster: O(cluster width · (rh+2r)) element
// operations where the per-rect form paid that for every rect of the
// cluster, against the dense path's 2·W·H·(2r+1) per kernel pass. For
// block-scale masks under production kernels that is an order of
// magnitude fewer floating-point ops, and the raster itself need never
// be built. Factoring c·Σx where the per-rect form added Σ c·x moves
// the last bits of a pixel, not more (EXPERIMENTS.md R43).

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

// rectProfile adds (g ⊛ cx)(lo+idx) to prof[idx] for the 1-D coverage
// cx of the continuous pixel-space span [a0, a1): on a zeroed prof it
// stores the profile, on a band's column accumulator it sums the band's
// rects. The span must already be clipped to the grid so the zero
// boundary condition matches the dense path.
func rectProfile(prof []float64, lo int, a0, a1 float64, kern, cdf []float64) {
	r := len(kern) / 2
	mL := int(math.Floor(a0))
	fL := float64(mL+1) - a0
	mR := int(math.Floor(a1))
	fR := float64(mR+1) - a1
	for idx := range prof {
		i := lo + idx
		prof[idx] += stepConv(i, mL, r, fL, kern, cdf) - stepConv(i, mR, r, fR, kern, cdf)
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
// were clipped to, walking y-bands of rects instead of pixels: band
// holds those rows only, row j at band[(j-j0)*w:]. spans must come from
// a disjoint rect set (geom.Normalize form), whose consecutive spans
// with equal y0 and y1 — a y-group — share one row profile profY,
// computed once per group. Each rect of the group adds its column
// profile into the accumulator, and rects whose footprints overlap or
// touch form one cluster: cluster columns [c0, c1) are one rank-1
// update of the band (kernel.go), row loy+j getting
// (weight·profY[j])·acc[c0:c1], a row whose product is zero nothing,
// and then the cluster's accumulator is cleared. A pixel receives the
// same additions in the same order whatever band it is computed in — a
// group either misses the band or contributes every cluster, and
// neither profile depends on the range asked for — so a grid rendered
// in bands equals the grid rendered whole bit for bit. What a band
// costs extra is the column profiles, recomputed for every band a
// group's footprint reaches.
//
// Every column it adds to is marked in touched, one entry per group of
// 64 columns ((w+63)/64 of them): a column whose group is still
// unmarked holds whatever the band held on entry, in every row. The
// marks are per band, not per row, and only ever set here.
//
// prof is scratch, at least w + (j1 - j0) long: prof[:w] is the column
// accumulator and must be zero on entry, as it is again on return
// (canceled or not); the rest holds the row profile. It is the
// caller's plain allocation, not the free list's: the list is sized
// for band-scale buffers, and a row-sized request would either evict
// one or borrow it.
func sparseBlurAcc(ctx context.Context, spans []pxSpan, w, j0, j1 int, kern, cdf []float64, weight float64, band, prof []float64, touched []bool) error {
	r := len(kern) / 2
	acc, py := prof[:w], prof[w:]
	var (
		profY          []float64 // the group's row profile; nil when its rows miss the band
		loy            int       // the band row profY[0] belongs to
		c0, c1         int       // the open cluster's columns [c0, c1), empty when c0 == c1
		rects, updates int64
	)
	for si, s := range spans {
		if si&63 == 0 {
			if err := ctx.Err(); err != nil {
				clear(acc[c0:c1])
				return err
			}
		}
		if si == 0 || s.y0 != spans[si-1].y0 || s.y1 != spans[si-1].y1 {
			// A new y-group: the last one's open cluster is complete.
			if c1 > c0 {
				flushCluster(weight, profY, acc[c0:c1], band[(loy-j0)*w+c0:], w)
				updates++
				c0, c1 = 0, 0
			}
			// Most groups miss most bands: reject on rows first.
			loy = max(int(math.Floor(s.y0))-r, j0)
			hiy := min(int(math.Floor(s.y1))+r+1, j1)
			profY = nil
			if hiy > loy {
				profY = py[:hiy-loy]
				clear(profY)
				rectProfile(profY, loy, s.y0, s.y1, kern, cdf)
			}
		}
		if profY == nil {
			continue
		}
		lox := max(int(math.Floor(s.x0))-r, 0)
		hix := min(int(math.Floor(s.x1))+r+1, w) // > lox: the span is non-empty inside [0, w]
		for g := lox >> 6; g <= (hix-1)>>6; g++ {
			touched[g] = true
		}
		if lox > c1 || hix < c0 {
			// Apart from the open cluster (or there is none): flush it
			// and open this footprint's.
			if c1 > c0 {
				flushCluster(weight, profY, acc[c0:c1], band[(loy-j0)*w+c0:], w)
				updates++
			}
			c0, c1 = lox, hix
		} else {
			c0, c1 = min(c0, lox), max(c1, hix)
		}
		rectProfile(acc[lox:hix], lox, s.x0, s.x1, kern, cdf)
		rects++
	}
	if c1 > c0 {
		flushCluster(weight, profY, acc[c0:c1], band[(loy-j0)*w+c0:], w)
		updates++
	}
	cBlurRects.Add(rects)
	cBlurUpdates.Add(updates)
	return nil
}

// flushCluster is one cluster's rank-1 update: dst row j gets
// (weight·profY[j])·acc, rows w apart, and acc is cleared after.
func flushCluster(weight float64, profY, acc, dst []float64, w int) {
	rank1(weight, profY, acc, dst, w)
	clear(acc)
}
