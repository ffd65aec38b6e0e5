package litho

import (
	"cmp"
	"context"
	"math"
	"slices"

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
// dose lists. The mask is simulated once per |defocus|; dose enters
// the intensity as a pure scale factor (I = A^2 * dose), so the dose
// axis of the matrix costs scalar threshold rescales rather than
// re-simulation. A |defocus| that was in the handle's cache when the
// matrix reached it stays there; one the matrix rendered is retired
// after its last dose is measured, and the next |defocus| renders over
// its grid, so a matrix holds one grid beyond what the caller cached,
// however long the defocus list. A caller that keeps an image asks for
// it before the matrix: an image of a |defocus| the matrix renders is
// invalid once it returns. The RasterMask's defocus budget must cover the
// defocus list. The context is checked per defocus condition; on
// cancellation FEMatrix returns the points sampled so far alongside
// the context error.
func (rm *RasterMask) FEMatrix(ctx context.Context, x, y float64, horizontal bool, spec CDSpec,
	defocus, dose []float64) ([]FEPoint, error) {

	// last[|f|] is where the list asks for |f| for the last time, and
	// held[|f|] whether the cache had it before the matrix did.
	last := make(map[float64]int, len(defocus))
	held := make(map[float64]bool, len(defocus))
	for i, f := range defocus {
		last[math.Abs(f)] = i
	}
	out := make([]FEPoint, 0, len(defocus)*len(dose))
	for i, f := range defocus {
		key := math.Abs(f)
		if _, seen := held[key]; !seen {
			held[key] = rm.cached(key)
		}
		// Each matrix cell is its own simulation request at unit dose,
		// so the raster cache sees (and accounts) every cell: the first
		// dose at each |defocus| misses and runs the convolution stack,
		// the remaining doses hit and cost a threshold rescale. A 9x5
		// matrix is 9 misses and 36 hits in the metrics snapshot.
		for _, d := range dose {
			img, err := rm.Image(ctx, Condition{Defocus: f, Dose: 1})
			if err != nil {
				return out, err
			}
			cd, ok := img.withDose(d).CDAt(x, y, horizontal)
			p := FEPoint{Cond: Condition{Defocus: f, Dose: d}, CD: cd}
			p.OK = ok && spec.InSpec(cd)
			out = append(out, p)
		}
		if last[key] == i && !held[key] {
			rm.drop(key)
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
	for _, f := range defocus {
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
// printed regions, with a cancellation checkpoint per distinct
// |defocus|. The mask is normalized once and rendered once per
// |defocus|, so the standard 5-corner set costs two convolution
// stacks, not five simulations, and no intensity grid: each amplitude
// row of a render is thresholded, 64 pixels a word, once for every
// corner at that |defocus| (a dose enters as the threshold
// Threshold/dose, exactly the view withDose gives the unit-dose
// image), and the words are ANDed into the always rows and ORed into
// the ever rows as they come. AND and OR are exact and order-free, so
// the band does not depend on the order the corners come in.
func ComputePVBandCtx(ctx context.Context, mask []geom.Rect, window geom.Rect, opt tech.Optics, corners []Condition) (PVBand, error) {
	var pv PVBand
	if len(corners) == 0 {
		return pv, nil
	}
	always, ever, err := overlayCorners(ctx, mask, window, opt, corners)
	if err != nil {
		return pv, err
	}
	pv.Always = always.ToRects()
	pv.Ever = ever.ToRects()
	for i, a := range always.words {
		ever.words[i] &^= a
	}
	pv.Band = ever.ToRects()
	return pv, nil
}

// overlayCorners returns the window's printed bitmaps under the
// corners, which must not be empty, ANDed (always) and ORed (ever),
// streamed row by row out of one render per distinct |defocus|.
func overlayCorners(ctx context.Context, mask []geom.Rect, window geom.Rect, opt tech.Optics, corners []Condition) (always, ever *Bitmap, err error) {
	maxF := 0.0
	for _, c := range corners {
		maxF = max(maxF, math.Abs(c.Defocus))
	}
	byFocus := slices.Clone(corners)
	slices.SortStableFunc(byFocus, func(a, b Condition) int {
		return cmp.Compare(math.Abs(a.Defocus), math.Abs(b.Defocus))
	})
	rm := NewRasterMask(mask, window, opt, maxF)
	w, h := gridDims(window, rm.pitch)
	always, ever = NewBitmap(w, h), NewBitmap(w, h)
	always.Origin, always.Pitch = window.LL(), rm.pitch
	ever.Origin, ever.Pitch = always.Origin, always.Pitch
	for i := range always.words {
		always.words[i] = ^uint64(0)
	}
	tail := tailMask(w)
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for len(byFocus) > 0 {
		n := 1
		for n < len(byFocus) && math.Abs(byFocus[n].Defocus) == math.Abs(byFocus[0].Defocus) {
			n++
		}
		// thr[c] is corner c's threshold on the unit-dose intensity, and
		// blank[c] its word for 64 untouched pixels (amplitude +0),
		// evaluated once as printedRows does.
		thr, blank := make([]float64, n), make([]uint64, n)
		for c, cond := range byFocus[:n] {
			thr[c] = opt.Threshold * 1 / cond.Dose
			if thresholdWord([]float64{0}, 1, thr[c]) != 0 {
				blank[c] = ^uint64(0)
			}
		}
		err := rm.renderLocked(ctx, byFocus[0].Defocus, w, h, bandRows, func(j int, a []float64, live []bool) {
			al, ev := always.row(j), ever.row(j)
			for k := range al {
				for c := range thr {
					word := blank[c]
					if live[k] {
						word = thresholdWord(a[k<<6:min(k<<6+64, w)], 1, thr[c])
					}
					al[k] &= word
					ev[k] |= word
				}
			}
			// A blank word of ones sets the tail bits, which a Bitmap
			// keeps clear.
			al[len(al)-1] &= tail
			ev[len(ev)-1] &= tail
		})
		if err != nil {
			return nil, nil, err
		}
		byFocus = byFocus[n:]
	}
	return always, ever, nil
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
