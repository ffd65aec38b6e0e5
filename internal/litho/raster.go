package litho

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// RasterMask is a mask rasterized once and simulated many times: the
// padded coverage grid is computed a single time and shared across
// every kernel pass, focus-exposure condition, PV-band corner, and
// verification call that looks at the same mask/window pair. Unit-dose
// intensity fields are cached per |defocus| (the defocus broadening is
// even in f), so a 9x5 focus-exposure matrix costs 9 convolution
// stacks plus scalar threshold rescales rather than 45 simulations.
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

	mu      sync.Mutex
	raster  Grid        // padded coverage raster; pooled buffer, Data nil until built or after Release
	norm    []geom.Rect // normalized mask, built once on first simulation
	cache   map[float64]*Grid
	caching bool
}

// NewRasterMask prepares the mask for repeated simulation inside the
// window under any condition with |defocus| <= maxDefocus (the pad
// must cover the widest kernel that will ever run on this raster).
// Rasterization itself is deferred to the first simulation.
func NewRasterMask(mask []geom.Rect, window geom.Rect, opt tech.Optics, maxDefocus float64) *RasterMask {
	return newRasterMask(mask, window, opt, maxDefocus, true)
}

func newRasterMask(mask []geom.Rect, window geom.Rect, opt tech.Optics, maxDefocus float64, caching bool) *RasterMask {
	maxDefocus = math.Abs(maxDefocus)
	f := defocusFactor(opt, maxDefocus)
	maxSigma := 0.0
	for _, s := range opt.Sigmas {
		if s*f > maxSigma {
			maxSigma = s * f
		}
	}
	pitch := opt.GridNM
	if pitch <= 0 {
		pitch = 1
	}
	// The pad is rounded up to whole pixels so the padded raster is
	// pixel-registered with the window grid: cropping then lands on
	// exact pixel boundaries instead of shifting the image by a
	// (defocus-dependent) sub-pixel offset.
	padPx := int64(math.Ceil(3 * maxSigma / pitch))
	padNM := int64(math.Ceil(float64(padPx) * pitch))
	rm := &RasterMask{
		mask:       mask,
		window:     window,
		opt:        opt,
		maxDefocus: maxDefocus,
		padded:     window.Bloat(padNM),
		pitch:      pitch,
		caching:    caching,
	}
	rm.rW, rm.rH = gridDims(rm.padded, pitch)
	if caching {
		rm.cache = make(map[float64]*Grid)
	}
	return rm
}

// SimPadNM returns the pixel-registered pad a simulation adds around
// its window at |defocus| <= maxDefocus: geometry farther than this
// from the window cannot influence the image. internal/tiling uses it
// to bound how much chip geometry each scan window must extract for
// the tiled simulation to be bit-identical to the flat one.
func SimPadNM(opt tech.Optics, maxDefocus float64) int64 {
	f := defocusFactor(opt, math.Abs(maxDefocus))
	maxSigma := 0.0
	for _, s := range opt.Sigmas {
		if s*f > maxSigma {
			maxSigma = s * f
		}
	}
	pitch := opt.GridNM
	if pitch <= 0 {
		pitch = 1
	}
	padPx := int64(math.Ceil(3 * maxSigma / pitch))
	return int64(math.Ceil(float64(padPx) * pitch))
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
// mask/window but reusing the shared raster and the per-defocus
// intensity cache. At unit dose the returned image shares the cached
// intensity grid — callers must treat its Data as read-only (Clone the
// grid before mutating); at other doses the grid is a fresh scaled
// copy.
func SimulateRaster(ctx context.Context, rm *RasterMask, cond Condition) (*Image, error) {
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

// Release returns the padded raster to the shared buffer pool. The
// RasterMask stays usable — the raster is rebuilt lazily on the next
// simulation — and previously returned images remain valid (cached
// intensity grids are never pooled).
func (rm *RasterMask) Release() {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if rm.raster.Data != nil {
		putBuf(rm.raster.Data)
		rm.raster.Data = nil
	}
}

// unitIntensity returns the dose-1 intensity field cropped to the
// window at the given defocus, cached per |defocus| when the mask was
// built with NewRasterMask. Ownership of the returned grid stays with
// the cache when caching; otherwise it transfers to the caller.
func (rm *RasterMask) unitIntensity(ctx context.Context, defocus float64) (*Grid, error) {
	key := math.Abs(defocus)
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if g, ok := rm.cache[key]; ok {
		cRasterHit.Inc()
		countPerDefocus("litho.raster.cache.hit", key)
		return g, nil
	}
	// Crop the padding back off and square: I = A^2 at unit dose.
	g := NewGrid(rm.window, rm.opt.GridNM)
	err := rm.renderLocked(ctx, defocus, g.W, g.H, func(j int, a []float64) {
		row := g.Data[j*g.W : (j+1)*g.W]
		for i, v := range a {
			row[i] = v * v
		}
	})
	if err != nil {
		return nil, err
	}
	if rm.caching {
		rm.cache[key] = g
	}
	return g, nil
}

// printed returns the printed/not-printed bitmap of the window under
// cond without materialising the intensity field: each amplitude is
// squared, dose-scaled and thresholded with exactly the float
// operations SimulateCtx followed by PrintedBitmap performs, in the
// same order, so the bits are identical.
func (rm *RasterMask) printed(ctx context.Context, cond Condition) (*Bitmap, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	w, h := gridDims(rm.window, rm.pitch)
	b := NewBitmap(w, h)
	b.Origin, b.Pitch = rm.window.LL(), rm.pitch
	dose, thr := cond.Dose, rm.opt.Threshold
	err := rm.renderLocked(ctx, cond.Defocus, w, h, func(j int, a []float64) {
		row := b.row(j)
		for i, v := range a {
			v *= v
			if dose != 1 {
				v *= dose
			}
			if v >= thr {
				row[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// simulatePrinted is SimulateCtx(...).PrintedBitmap() for callers that
// only need the printed bits (the hotspot scan).
func simulatePrinted(ctx context.Context, mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) (*Bitmap, error) {
	rm := newRasterMask(mask, window, opt, cond.Defocus, false)
	defer rm.Release()
	return rm.printed(ctx, cond)
}

// renderLocked runs one convolution stack (a raster-cache miss) and
// feeds the amplitude, cropped to the w x h window grid, to sink one
// row at a time: sink(j, a) receives the w amplitudes of window row j.
// The amplitude buffer is pooled and a is only valid during the call.
// Called with rm.mu held.
func (rm *RasterMask) renderLocked(ctx context.Context, defocus float64, w, h int, sink func(j int, a []float64)) error {
	key := math.Abs(defocus)
	if key > rm.maxDefocus {
		return fmt.Errorf("litho: defocus %g exceeds RasterMask budget %g (pad too small)", key, rm.maxDefocus)
	}
	sp := hSimulateNS.Start()
	defer sp.End()
	amp, err := rm.amplitudeLocked(ctx, defocus)
	if err != nil {
		return err
	}
	defer putBuf(amp)
	// The pad is a whole number of pixels on every side, so the window
	// grid lies on the padded raster with at least a pixel to spare.
	di := int(math.Round(float64(rm.window.X0-rm.padded.X0) / rm.pitch))
	dj := int(math.Round(float64(rm.window.Y0-rm.padded.Y0) / rm.pitch))
	for j := 0; j < h; j++ {
		at := (j+dj)*rm.rW + di
		sink(j, amp[at:at+w])
	}
	cRasterMiss.Inc()
	countPerDefocus("litho.raster.cache.miss", key)
	return nil
}

// ensureRasterLocked builds the padded coverage raster if it is not
// resident (first dense-path simulation, or after Release).
func (rm *RasterMask) ensureRasterLocked() {
	if rm.raster.Data != nil {
		return
	}
	rm.raster = Grid{
		Origin: rm.padded.LL(),
		Pitch:  rm.pitch,
		W:      rm.rW,
		H:      rm.rH,
		Data:   getBuf(rm.rW * rm.rH),
	}
	rm.raster.Rasterize(rm.norm)
}

// amplitudeLocked runs the kernel stack: amplitude A = sum_k w_k
// (G_sk * M) accumulated over the padded raster in a pooled buffer,
// which the caller must putBuf. Each kernel pass is routed by an
// op-count heuristic: sparse per-rect decomposition (sparse.go) when
// the mask's blurred footprint is smaller than two full raster passes,
// the dense raster blur otherwise. The raster itself is only built
// when some pass goes dense. Called with rm.mu held.
func (rm *RasterMask) amplitudeLocked(ctx context.Context, defocus float64) (_ []float64, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rm.norm == nil {
		rm.norm = geom.Normalize(rm.mask)
	}
	f := defocusFactor(rm.opt, defocus)
	var wsum float64
	for _, w := range rm.opt.Weights {
		wsum += w
	}
	if wsum == 0 {
		wsum = 1
	}
	n := rm.rW * rm.rH
	amp := getBuf(n)
	var tmp []float64 // dense-pass scratch, fetched on first dense pass
	defer func() {
		if tmp != nil {
			putBuf(tmp)
		}
		if err != nil {
			putBuf(amp)
		}
	}()
	// One closure pair shared across the sigma loop: the per-pass kernel
	// and weight travel through a single captured state rather than a
	// fresh closure per kernel pass.
	type passState struct {
		kern   []float64
		weight float64
	}
	var ps passState
	hPass := func(j0, j1 int) {
		src := rm.raster.Data
		for j := j0; j < j1; j++ {
			blurRowH(src[j*rm.rW:(j+1)*rm.rW], tmp[j*rm.rW:(j+1)*rm.rW], ps.kern)
		}
	}
	vPass := func(j0, j1 int) {
		blurVAccRows(tmp, amp, rm.rW, rm.rH, j0, j1, ps.kern, ps.weight)
	}
	for k, s := range rm.opt.Sigmas {
		w := rm.opt.Weights[k] / wsum
		sigmaPx := s * f / rm.pitch
		if sigmaPx <= 0 {
			rm.ensureRasterLocked()
			for i, v := range rm.raster.Data {
				amp[i] += w * v
			}
			continue
		}
		kern, cdf := gaussKernelCDF(sigmaPx)
		cBlurPasses.Inc()
		if sparseBlurOps(rm.norm, rm.padded, rm.pitch, rm.rW, rm.rH, len(kern)) < denseBlurOps(rm.rW, rm.rH, len(kern)) {
			cBlurSparse.Inc()
			if err := sparseBlurAcc(ctx, rm.norm, rm.padded, rm.pitch, rm.rW, rm.rH, kern, cdf, w, amp); err != nil {
				return nil, err
			}
			continue
		}
		cBlurDense.Inc()
		rm.ensureRasterLocked()
		if tmp == nil {
			tmp = getBuf(n)
		}
		ps.kern, ps.weight = kern, w
		if err := rowParallel(ctx, rm.rH, rm.rW, hPass); err != nil {
			return nil, err
		}
		if err := rowParallel(ctx, rm.rH, rm.rW, vPass); err != nil {
			return nil, err
		}
	}
	return amp, nil
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
