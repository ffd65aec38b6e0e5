package litho

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// RasterMask is a mask prepared once and simulated many times: the
// normalized rect set, clipped to the padded grid in pixel space, and
// the grid geometry are computed a single time and shared across every
// kernel pass, focus-exposure condition, PV-band corner, and
// verification call that looks at the same mask/window pair. Unit-dose
// intensity fields are cached per |defocus| (the defocus broadening is
// even in f), so a 9x5 focus-exposure matrix costs 9 convolution
// stacks plus scalar threshold rescales rather than 45 simulations.
// Despite the name it owns no raster, of the mask or of the amplitude:
// the sparse blur (sparse.go) goes from rects to the amplitude of a
// band of window rows, and a band is squared or thresholded into what
// the caller keeps before the next one is computed.
//
// A RasterMask is safe for concurrent use; simulations of the same
// mask serialize on an internal lock.
type RasterMask struct {
	mask       []geom.Rect
	window     geom.Rect
	opt        tech.Optics
	maxDefocus float64
	padded     geom.Rect
	pitch      float64
	rW, rH     int

	mu    sync.Mutex
	spans []pxSpan // normalized mask on the padded grid, built once on first simulation
	cache map[float64]*Grid
}

// NewRasterMask prepares the mask for repeated simulation inside the
// window under any condition with |defocus| <= maxDefocus (the pad
// must cover the widest kernel that will ever run on this mask).
// Normalization is deferred to the first simulation.
func NewRasterMask(mask []geom.Rect, window geom.Rect, opt tech.Optics, maxDefocus float64) *RasterMask {
	maxDefocus = math.Abs(maxDefocus)
	pitch := opt.GridNM
	if pitch <= 0 {
		pitch = 1
	}
	rm := &RasterMask{
		mask:       mask,
		window:     window,
		opt:        opt,
		maxDefocus: maxDefocus,
		padded:     window.Bloat(SimPadNM(opt, maxDefocus)),
		pitch:      pitch,
		cache:      make(map[float64]*Grid),
	}
	rm.rW, rm.rH = gridDims(rm.padded, pitch)
	return rm
}

// SimPadNM returns the pixel-registered pad a simulation adds around
// its window at |defocus| <= maxDefocus: geometry farther than this
// from the window cannot influence the image. internal/tiling uses it
// to bound how much chip geometry each scan window must extract for
// the tiled simulation to be bit-identical to the flat one.
func SimPadNM(opt tech.Optics, maxDefocus float64) int64 {
	padPx, pitch := simPad(opt, maxDefocus)
	return int64(math.Ceil(padPx * pitch))
}

// simPad returns the pad in pixels and the pitch it is measured in.
// The pad is rounded up to whole pixels so the padded grid is
// pixel-registered with the window grid: cropping then lands on exact
// pixel boundaries instead of shifting the image by a
// (defocus-dependent) sub-pixel offset. It stays a float64 so that
// optics no integer pad can hold come back huge instead of wrapped.
func simPad(opt tech.Optics, maxDefocus float64) (padPx, pitch float64) {
	f := defocusFactor(opt, math.Abs(maxDefocus))
	maxSigma := 0.0
	for _, s := range opt.Sigmas {
		if s*f > maxSigma {
			maxSigma = s * f
		}
	}
	pitch = opt.GridNM
	if pitch <= 0 {
		pitch = 1
	}
	return math.Ceil(3 * maxSigma / pitch), pitch
}

// defocusFactor returns the kernel broadening sqrt(1+(f/F)^2) at the
// given defocus; every sigma scales by it.
func defocusFactor(opt tech.Optics, defocus float64) float64 {
	if opt.DefocusScale <= 0 {
		return 1
	}
	q := defocus / opt.DefocusScale
	return math.Sqrt(1 + q*q)
}

// SimulateRaster computes the aerial image of the rasterized mask
// under the given condition, equivalent to SimulateCtx on the same
// mask/window but reusing the normalized mask and the per-defocus
// intensity cache. At unit dose the returned image shares the cached
// intensity grid — callers must treat its Data as read-only (Clone the
// grid before mutating); at other doses the grid is a fresh scaled
// copy.
func SimulateRaster(ctx context.Context, rm *RasterMask, cond Condition) (*Image, error) {
	unit, err := rm.unitIntensity(ctx, cond.Defocus, nil)
	if err != nil {
		return nil, err
	}
	if cond.Dose == 1 {
		return &Image{Grid: unit, Threshold: rm.opt.Threshold, Cond: cond}, nil
	}
	out := &Grid{Origin: unit.Origin, Pitch: unit.Pitch, W: unit.W, H: unit.H, Data: make([]float64, len(unit.Data))}
	for i, v := range unit.Data {
		out.Data[i] = v * cond.Dose
	}
	return &Image{Grid: out, Threshold: rm.opt.Threshold, Cond: cond}, nil
}

// unitIntensity returns the dose-1 intensity field cropped to the
// window at the given defocus, cached per |defocus|. The returned grid
// belongs to the cache. On a miss the field is written over into's
// Data when into has the window's dimensions (every pixel is
// overwritten, so it need not be cleared), into a fresh grid otherwise.
func (rm *RasterMask) unitIntensity(ctx context.Context, defocus float64, into *Grid) (*Grid, error) {
	key := math.Abs(defocus)
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if g, ok := rm.cache[key]; ok {
		cRasterHit.Inc()
		countPerDefocus("litho.raster.cache.hit", key)
		return g, nil
	}
	var g *Grid
	if w, h := gridDims(rm.window, rm.pitch); into != nil && into.W == w && into.H == h {
		g = &Grid{Origin: rm.window.LL(), Pitch: rm.pitch, W: w, H: h, Data: into.Data}
	} else {
		g = NewGrid(rm.window, rm.pitch)
	}
	// Crop the padding back off and square: I = A^2 at unit dose. Every
	// pixel is written, touched or not: g may be a reused grid.
	err := rm.renderLocked(ctx, defocus, g.W, g.H, bandRows, func(j int, a []float64, _ []bool) {
		row := g.Data[j*g.W : (j+1)*g.W]
		for i, v := range a {
			row[i] = v * v
		}
	})
	if err != nil {
		return nil, err
	}
	rm.cache[key] = g
	return g, nil
}

// printed returns the printed/not-printed bitmap of the window under
// cond without materialising the intensity field or the amplitude
// field: each amplitude of a band is squared, dose-scaled and
// thresholded with exactly the float operations SimulateCtx followed
// by PrintedBitmap performs, in the same order, so the bits are
// identical. A word none of whose 64 columns the band's footprints
// reached is not computed: every amplitude under it is +0, so it is
// the word that expression gives for 0, evaluated once — blank for any
// positive threshold, all ones when the threshold is not.
func (rm *RasterMask) printed(ctx context.Context, cond Condition) (*Bitmap, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	w, h := gridDims(rm.window, rm.pitch)
	b := NewBitmap(w, h)
	b.Origin, b.Pitch = rm.window.LL(), rm.pitch
	dose, thr := cond.Dose, rm.opt.Threshold
	mask := b.tailMask()
	var blank uint64 // an untouched word: 64 amplitudes of +0
	if thresholdWord(make([]float64, 1), dose, thr) != 0 {
		blank = ^uint64(0)
	}
	err := rm.renderLocked(ctx, cond.Defocus, w, h, bandRows, func(j int, a []float64, live []bool) {
		row := b.row(j)
		for k := range row {
			if live[k] {
				row[k] = thresholdWord(a[k<<6:min(k<<6+64, w)], dose, thr)
			} else {
				row[k] = blank
			}
		}
		row[len(row)-1] &= mask
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// thresholdWord packs v*v*dose >= thr of up to 64 amplitudes into a
// word, a[0] at bit 0. (Multiplying by a dose of 1 is exact, so there
// is no unit-dose branch.) The word is built in a register four pixels
// at a time, each nibble entering at the top as the rest moves down:
// written with a bit index per pixel, the loop spends more on the
// variable shift and its >= 64 guard than on the arithmetic.
func thresholdWord(a []float64, dose, thr float64) uint64 {
	var word uint64
	n := len(a)
	for ; len(a) >= 4; a = a[4:] {
		var nib uint64
		if a[0]*a[0]*dose >= thr {
			nib = 1
		}
		if a[1]*a[1]*dose >= thr {
			nib |= 2
		}
		if a[2]*a[2]*dose >= thr {
			nib |= 4
		}
		if a[3]*a[3]*dose >= thr {
			nib |= 8
		}
		word = word>>4 | nib<<60
	}
	for _, v := range a {
		word >>= 1
		if v*v*dose >= thr {
			word |= 1 << 63
		}
	}
	return word >> (64 - uint(n)) // n >= 1
}

// simulatePrinted is SimulateCtx(...).PrintedBitmap() for callers that
// only need the printed bits (the hotspot scan).
func simulatePrinted(ctx context.Context, mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) (*Bitmap, error) {
	return NewRasterMask(mask, window, opt, cond.Defocus).printed(ctx, cond)
}

// bandRows is how many window rows a render blurs and hands to its
// sink at a time. It is a constant, not a knob: what banding buys is
// that the amplitude never leaves the cache for DRAM and that no
// grid-sized buffer is cleared, and a chip_litho pass costs the same
// at 8, 16, 32, 64 or 128 rows (EXPERIMENTS.md R23). Tall wins on
// small windows, because a rect's column profile is recomputed for
// every band its footprint reaches. At 128 a 13 um scan window's band
// is 2.8 MB; its padded grid would be 58 MB.
const bandRows = 128

// bandBudget caps a band in float64s (4 MiB of them) rather than in
// rows: a window a few hundred pixels tall and 2^17 wide passes the
// tile wire's pixel cap, and 128 of its rows would be 134 MB. Such a
// window gets fewer rows per band, down to one; a production window's
// 128 rows are well under the cap.
const bandBudget = 4 << 20 / 8

// renderLocked runs one convolution stack (a raster-cache miss) over
// the w x h window grid, at most rows rows and bandBudget amplitudes
// at a time, and feeds the amplitude to sink one row at a time:
// sink(j, a, live) receives the w amplitudes of window row j, rows in
// ascending order. Each band is the amplitude A = sum_k w_k (G_sk * M)
// of its rows, accumulated kernel by kernel with the exact sparse
// per-rect blur (sparse.go); no coverage raster is built, the pad rows
// above and below the window are never computed, and the amplitude of
// the whole grid never exists at once.
//
// A scan window is mostly blank, so the render keeps the set of
// 64-column groups of the padded row the band's footprints touched.
// live is that set seen from the window: live[k] is false when no
// footprint reached columns [64k, 64k+64) of a, every one of which is
// then +0 in every row of the band. After the band is sunk only the
// touched runs of each row are cleared: the buffer is zero when taken
// and zero between bands, and goes back to the free list zero unless
// the render was cut short (getBuf zeroes what it reuses either way).
//
// The band buffer is pooled, returned on every path, and a and live
// are only valid during the call. The result does not depend on rows.
// Called with rm.mu held.
func (rm *RasterMask) renderLocked(ctx context.Context, defocus float64, w, h, rows int, sink func(j int, a []float64, live []bool)) error {
	key := math.Abs(defocus)
	if key > rm.maxDefocus {
		return fmt.Errorf("litho: defocus %g exceeds RasterMask budget %g (pad too small)", key, rm.maxDefocus)
	}
	sp := hSimulateNS.Start()
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	if rm.spans == nil {
		rm.spans = clipSpans(geom.Normalize(rm.mask), rm.padded, rm.pitch, rm.rW, rm.rH)
	}
	f := defocusFactor(rm.opt, defocus)
	var wsum float64
	for _, w := range rm.opt.Weights {
		wsum += w
	}
	if wsum == 0 {
		wsum = 1
	}
	type pass struct {
		kern, cdf []float64
		weight    float64
	}
	passes := make([]pass, len(rm.opt.Sigmas))
	for k, s := range rm.opt.Sigmas {
		sigmaPx := s * f / rm.pitch
		if !(sigmaPx > 0) {
			return fmt.Errorf("litho: kernel %d has non-positive sigma %g nm", k, s)
		}
		kern, cdf := gaussKernelCDF(sigmaPx)
		passes[k] = pass{kern, cdf, rm.opt.Weights[k] / wsum}
		cBlurPasses.Inc()
		cBlurSparse.Inc()
	}
	// The pad is a whole number of pixels on every side, so the window
	// grid lies on the padded grid with at least a pixel to spare.
	di := int(math.Round(float64(rm.window.X0-rm.padded.X0) / rm.pitch))
	dj := int(math.Round(float64(rm.window.Y0-rm.padded.Y0) / rm.pitch))
	rows = min(rows, h, max(1, bandBudget/rm.rW))
	buf := getBuf(rows * rm.rW)
	defer putBuf(buf)
	prof := make([]float64, rm.rW+rows)
	touched := make([]bool, (rm.rW+63)/64)
	live := make([]bool, (w+63)/64)
	for b0 := 0; b0 < h; b0 += rows {
		b1 := min(b0+rows, h)
		band := buf[:(b1-b0)*rm.rW]
		for _, p := range passes {
			if err := sparseBlurAcc(ctx, rm.spans, rm.rW, b0+dj, b1+dj, p.kern, p.cdf, p.weight, band, prof, touched); err != nil {
				return err
			}
		}
		for k := range live {
			live[k] = touched[(k<<6+di)>>6] || touched[(min(k<<6+63, w-1)+di)>>6]
		}
		for j := b0; j < b1; j++ {
			at := (j-b0)*rm.rW + di
			sink(j, band[at:at+w], live)
		}
		// Clear what was written, a run of touched groups at a time so
		// that a row is one long clear, not one per group.
		var nTouched int64
		for g := 0; g < len(touched); g++ {
			g0 := g
			for g < len(touched) && touched[g] {
				touched[g] = false
				g++
			}
			if g == g0 {
				continue
			}
			nTouched += int64(g - g0)
			lo, hi := g0<<6, min(g<<6, rm.rW)
			for at := 0; at < len(band); at += rm.rW {
				clear(band[at+lo : at+hi])
			}
		}
		cGroupsTouched.Add(nTouched)
		cGroupsOffered.Add(int64(len(touched)))
	}
	cRasterMiss.Inc()
	countPerDefocus("litho.raster.cache.miss", key)
	return nil
}

// withDose returns a measurement-equivalent view of the image at
// relative dose d: the grid is shared (and keeps the source image's
// intensity scaling) while the threshold is rescaled by Cond.Dose/d,
// so every threshold-relative measurement — PrintsAt, CDAt, EPEAt,
// hotspots, printed contours — matches a full re-simulation at dose d
// exactly. The view's Data must not be mutated.
func (im *Image) withDose(d float64) *Image {
	return &Image{
		Grid:      im.Grid,
		Threshold: im.Threshold * im.Cond.Dose / d,
		Cond:      Condition{Defocus: im.Cond.Defocus, Dose: d},
	}
}
