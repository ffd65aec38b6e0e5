package litho

import (
	"context"
	"fmt"
	"math"
	"slices"
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
	spans []pxSpan          // normalized mask on the padded grid, built once on first simulation
	cache map[float64]*Grid // the mask's unit-dose intensity per |defocus|
	spent []*Grid           // grids no image reads any more, to render over: all are the window's size
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

// Remask points the handle at the next mask over the same window,
// optics and defocus budget, for a loop that simulates a mask, measures
// it and moves it (the OPC loop). Every image handed out before the
// call is invalid from the moment of it: the next renders, at any
// |defocus|, write over the grids the old mask's images used instead
// of allocating.
func (rm *RasterMask) Remask(mask []geom.Rect) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.mask, rm.spans = mask, nil
	for _, g := range rm.cache {
		rm.spent = append(rm.spent, g)
	}
	clear(rm.cache)
}

// drop retires the field cached at |defocus|: the next miss renders
// over its grid, so every image of it handed out is invalid from the
// moment of the call.
func (rm *RasterMask) drop(defocus float64) {
	key := math.Abs(defocus)
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if g, ok := rm.cache[key]; ok {
		rm.spent = append(rm.spent, g)
		delete(rm.cache, key)
	}
}

// cached reports whether the field at |defocus| is in the cache.
func (rm *RasterMask) cached(defocus float64) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	_, ok := rm.cache[math.Abs(defocus)]
	return ok
}

// Image computes the aerial image of the mask under the given
// condition, equal to Simulate on the same mask/window but reusing the
// normalized mask and the per-defocus intensity cache. At unit dose the
// returned image shares the cached intensity grid — callers must treat
// its Data as read-only (Clone the grid before mutating); at other
// doses the grid is a fresh scaled copy.
func (rm *RasterMask) Image(ctx context.Context, cond Condition) (*Image, error) {
	unit, err := rm.unitIntensity(ctx, cond.Defocus)
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
// belongs to the cache. On a miss the field is written over a spent
// grid, whatever |defocus| it last held (every pixel is overwritten,
// so it need not be cleared), into a fresh grid when none is spent.
func (rm *RasterMask) unitIntensity(ctx context.Context, defocus float64) (*Grid, error) {
	key := math.Abs(defocus)
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if g, ok := rm.cache[key]; ok {
		cRasterHit.Inc()
		countPerDefocus("litho.raster.cache.hit", key)
		return g, nil
	}
	var g *Grid
	if n := len(rm.spent); n > 0 {
		g, rm.spent = rm.spent[n-1], rm.spent[:n-1]
		cGridReused.Inc()
	} else {
		g = NewGrid(rm.window, rm.pitch)
		cGridNew.Inc()
	}
	// Crop the padding back off and square: I = A^2 at unit dose. Every
	// pixel is written, touched or not: g may be a reused grid.
	err := rm.renderLocked(ctx, defocus, g.W, g.H, bandRows, func(j int, a []float64, _ []bool) {
		square(g.Data[j*g.W:(j+1)*g.W], a)
	})
	if err != nil {
		rm.spent = append(rm.spent, g)
		return nil, err
	}
	rm.cache[key] = g
	return g, nil
}

// printedRows hands sink the printed/not-printed rows of the window
// under cond, in the Bitmap layout, one at a time as the render
// thresholds them, with each row's extent and whether it equals the row
// before, found by one compare over the extent (stream.go); the bitmap
// itself is never built. Each amplitude of a band is squared,
// dose-scaled and thresholded with exactly the float operations
// Simulate followed by PrintedBitmap performs, in the same order, so
// the bits are identical. A word none of whose 64 columns the band's
// footprints reached is not computed: every amplitude under it is +0,
// so it is the word that expression gives for 0, evaluated once —
// blank for any positive threshold, all ones when the threshold is
// not. sink runs under the handle's lock.
func (rm *RasterMask) printedRows(ctx context.Context, cond Condition, sink rowFunc) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	w, h := gridDims(rm.window, rm.pitch)
	dose, thr := cond.Dose, rm.opt.Threshold
	mask := tailMask(w)
	var blank uint64 // an untouched word: 64 amplitudes of +0
	if thresholdWord(make([]float64, 1), dose, thr) != 0 {
		blank = ^uint64(0)
	}
	// Rows are thresholded into two buffers in turn, so the one before
	// is still there to flag a row equal to it.
	stride := (w + 63) / 64
	bufs := make([]uint64, 2*stride)
	var plo, phi int
	return rm.renderLocked(ctx, cond.Defocus, w, h, bandRows, func(j int, a []float64, live []bool) {
		row, prev := bufs[(j&1)*stride:][:stride], bufs[((j+1)&1)*stride:][:stride]
		for k := range row {
			if live[k] {
				row[k] = thresholdWord(a[k<<6:min(k<<6+64, w)], dose, thr)
			} else {
				row[k] = blank
			}
		}
		row[len(row)-1] &= mask
		lo, hi := trim(row, 0, len(row))
		same := j > 0 && lo == plo && hi == phi && slices.Equal(row[lo:hi], prev[lo:hi])
		plo, phi = lo, hi
		sink(j, row, lo, hi, same)
	})
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
// banded blur (sparse.go); no coverage raster is built, the pad rows
// above and below the window are never computed, and the amplitude of
// the whole grid never exists at once.
//
// A scan window is mostly blank, so the render keeps the set of
// 64-column groups of the padded row the band's footprints touched.
// live is that set seen from the window: live[k] is false when no
// footprint reached columns [64k, 64k+64) of a, every one of which is
// then +0 in every row of the band. Each row's touched runs are cleared
// as soon as its sink returns, while the row is still in cache, and a
// canceled band's rows are cleared before the error is returned: the
// band is zero when taken from the free list, zero between bands, and
// goes back zero, which is the free list's contract (buffers.go). A
// render that panics in its sink drops the band instead of returning
// it.
//
// a and live are only valid during the call. The result does not
// depend on rows. Called with rm.mu held.
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
	if simd {
		gKernelSIMD.Set(1)
	} else {
		gKernelSIMD.Set(0)
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
	buf := getBuf(rows * rm.rW) // put back only once all zero again
	prof := make([]float64, rm.rW+rows)
	touched := make([]bool, (rm.rW+63)/64)
	live := make([]bool, (w+63)/64)
	// runs holds the band's touched groups as [lo, hi) column pairs, so
	// that clearing a row is one clear per run, not one per group.
	runs := make([]int, 0, len(touched)+1)
	for b0 := 0; b0 < h; b0 += rows {
		b1 := min(b0+rows, h)
		band := buf[:(b1-b0)*rm.rW]
		var err error
		for _, p := range passes {
			if err = sparseBlurAcc(ctx, rm.spans, rm.rW, b0+dj, b1+dj, p.kern, p.cdf, p.weight, band, prof, touched); err != nil {
				break
			}
		}
		for k := range live {
			live[k] = touched[(k<<6+di)>>6] || touched[(min(k<<6+63, w-1)+di)>>6]
		}
		runs = runs[:0]
		var nTouched int64
		for g := 0; g < len(touched); g++ {
			g0 := g
			for g < len(touched) && touched[g] {
				touched[g] = false
				g++
			}
			if g > g0 {
				nTouched += int64(g - g0)
				runs = append(runs, g0<<6, min(g<<6, rm.rW))
			}
		}
		if err != nil {
			for at := 0; at < len(band); at += rm.rW {
				clearRuns(band[at:at+rm.rW], runs)
			}
			putBuf(buf)
			return err
		}
		cGroupsTouched.Add(nTouched)
		cGroupsOffered.Add(int64(len(touched)))
		for j := b0; j < b1; j++ {
			row := band[(j-b0)*rm.rW : (j-b0+1)*rm.rW]
			sink(j, row[di:di+w], live)
			clearRuns(row, runs)
		}
	}
	putBuf(buf)
	cRasterMiss.Inc()
	countPerDefocus("litho.raster.cache.miss", key)
	return nil
}

// clearRuns zeroes row[lo:hi] for each [lo, hi) pair of runs.
func clearRuns(row []float64, runs []int) {
	for i := 0; i < len(runs); i += 2 {
		clear(row[runs[i]:runs[i+1]])
	}
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
