package litho

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Focus-exposure process-window analysis and process-variability (PV)
// bands: the quantitative backbone of the SRAF and restricted-rules
// experiments.

// CDSpec is a target dimension with tolerance.
type CDSpec struct {
	Target float64 // nm
	Tol    float64 // fractional, e.g. 0.10 for +-10%
}

// InSpec reports whether a measured CD is inside the tolerance band.
func (s CDSpec) InSpec(cd float64) bool {
	return math.Abs(cd-s.Target) <= s.Tol*s.Target
}

// FEPoint is one focus-exposure matrix sample.
type FEPoint struct {
	Cond Condition
	CD   float64
	OK   bool // CD measurable and in spec
}

// FEMatrix simulates a focus-exposure matrix: the CD of the feature at
// (x, y) (measured along x when horizontal) across the defocus and
// dose lists. The mask is normalized once and simulated once per
// defocus; dose enters the intensity as a pure scale factor
// (I = A^2 * dose), so the dose axis of the matrix costs scalar
// threshold rescales rather than re-simulation.
func FEMatrix(mask []geom.Rect, window geom.Rect, opt tech.Optics,
	x, y float64, horizontal bool, spec CDSpec,
	defocus, dose []float64) []FEPoint {
	pts, _ := FEMatrixCtx(context.Background(), mask, window, opt, x, y, horizontal, spec, defocus, dose)
	return pts
}

// FEMatrixCtx is FEMatrix with a cancellation checkpoint per defocus
// condition; on cancellation it returns the points sampled so far
// alongside the context error.
func FEMatrixCtx(ctx context.Context, mask []geom.Rect, window geom.Rect, opt tech.Optics,
	x, y float64, horizontal bool, spec CDSpec,
	defocus, dose []float64) ([]FEPoint, error) {

	maxF := 0.0
	for _, f := range defocus {
		if a := math.Abs(f); a > maxF {
			maxF = a
		}
	}
	rm := NewRasterMask(mask, window, opt, maxF)
	return FEMatrixRaster(ctx, rm, x, y, horizontal, spec, defocus, dose)
}

// FEMatrixRaster is FEMatrixCtx over an existing RasterMask, for
// callers that interleave a focus-exposure sweep with other
// simulations of the same mask: every condition in the sweep lands in
// the mask's intensity cache. The RasterMask must have been built with
// maxDefocus covering the defocus list.
func FEMatrixRaster(ctx context.Context, rm *RasterMask,
	x, y float64, horizontal bool, spec CDSpec,
	defocus, dose []float64) ([]FEPoint, error) {

	out := make([]FEPoint, 0, len(defocus)*len(dose))
	for _, f := range defocus {
		// Each matrix cell is its own simulation request at unit dose,
		// so the raster cache sees (and accounts) every cell: the first
		// dose at each |defocus| misses and runs the convolution stack,
		// the remaining doses hit and cost a threshold rescale. A 9x5
		// matrix is 9 misses and 36 hits in the metrics snapshot.
		for _, d := range dose {
			img, err := SimulateRaster(ctx, rm, Condition{Defocus: f, Dose: 1})
			if err != nil {
				return out, err
			}
			cd, ok := img.withDose(d).CDAt(x, y, horizontal)
			p := FEPoint{Cond: Condition{Defocus: f, Dose: d}, CD: cd}
			p.OK = ok && spec.InSpec(cd)
			out = append(out, p)
		}
	}
	return out, nil
}

// DepthOfFocus returns the widest contiguous defocus range (nm) over
// which at least one dose in the matrix keeps the CD in spec. This is
// the usable process-window depth the SRAF experiment compares.
func DepthOfFocus(points []FEPoint, defocus []float64) float64 {
	okAt := make(map[float64]bool)
	for _, p := range points {
		if p.OK {
			okAt[p.Cond.Defocus] = true
		}
	}
	best, runStart := 0.0, math.NaN()
	for i, f := range defocus {
		if okAt[f] {
			if math.IsNaN(runStart) {
				runStart = f
			}
			if w := f - runStart; w > best {
				best = w
			}
		} else {
			runStart = math.NaN()
		}
		_ = i
	}
	return best
}

// ExposureLatitude returns the fractional dose range keeping CD in
// spec at the given defocus.
func ExposureLatitude(points []FEPoint, defocus float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		if p.Cond.Defocus == defocus && p.OK {
			if p.Cond.Dose < lo {
				lo = p.Cond.Dose
			}
			if p.Cond.Dose > hi {
				hi = p.Cond.Dose
			}
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// PVBand computes the process-variability band of the mask inside the
// window: the region printed under some but not all of the given
// corner conditions. Wide bands mark litho-fragile geometry; the band
// area is the standard printability-robustness metric.
type PVBand struct {
	Always []geom.Rect // printed at every corner
	Ever   []geom.Rect // printed at at least one corner
	Band   []geom.Rect // Ever minus Always
}

// ComputePVBandCtx simulates every corner condition and overlays the
// printed regions, with a cancellation checkpoint per corner
// condition. The mask is normalized once and shared across
// corners; dose-only corners reuse the focus corner's intensity field
// with a rescaled threshold, so the standard 5-corner set costs two
// convolution stacks, not five simulations.
func ComputePVBandCtx(ctx context.Context, mask []geom.Rect, window geom.Rect, opt tech.Optics, corners []Condition) (PVBand, error) {
	var pv PVBand
	maxF := 0.0
	for _, c := range corners {
		if a := math.Abs(c.Defocus); a > maxF {
			maxF = a
		}
	}
	rm := NewRasterMask(mask, window, opt, maxF)
	var always, ever *Bitmap
	for _, c := range corners {
		img, err := SimulateRaster(ctx, rm, Condition{Defocus: c.Defocus, Dose: 1})
		if err != nil {
			return pv, err
		}
		b := img.withDose(c.Dose).PrintedBitmap()
		if always == nil {
			always, ever = b.clone(), b.clone()
			continue
		}
		always = always.And(b)
		ever = ever.Or(b)
	}
	if always == nil {
		return pv, nil
	}
	pv.Always = always.ToRects()
	pv.Ever = ever.ToRects()
	pv.Band = ever.AndNot(always).ToRects()
	return pv, nil
}

// BandArea returns the PV band area in nm^2.
func (pv PVBand) BandArea() int64 { return geom.AreaOf(pv.Band) }

// StandardCorners returns the conventional 5-corner condition set:
// nominal, +-defocus at nominal dose, and +-dose at best focus.
func StandardCorners(defocus, doseDelta float64) []Condition {
	return []Condition{
		Nominal,
		{Defocus: defocus, Dose: 1},
		{Defocus: -defocus, Dose: 1},
		{Defocus: 0, Dose: 1 + doseDelta},
		{Defocus: 0, Dose: 1 - doseDelta},
	}
}
