package litho

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/tech"
)

// Condition is one exposure condition: defocus in nm from best focus
// and relative dose (1.0 = nominal).
type Condition struct {
	Defocus float64
	Dose    float64
}

// Nominal is the best-focus, nominal-dose condition.
var Nominal = Condition{Defocus: 0, Dose: 1}

// Image is a simulated aerial image with its resist threshold.
type Image struct {
	*Grid
	// Threshold is the print threshold in the image's intensity units
	// (already scaled by clear-field normalization and dose).
	Threshold float64
	Cond      Condition
}

// Simulate computes the aerial image of the mask geometry inside the
// window under the given condition. The model is a coherent sum of
// isotropic Gaussian kernels: amplitude A = sum_k w_k (G_sk * M),
// intensity I = A^2, normalized so a large clear area has intensity
// 1.0 at nominal dose. Defocus broadens every kernel by
// sigma' = sigma*sqrt(1+(f/F)^2). The simulation window is internally
// padded by the kernel support so features just outside the window
// still contribute (optical proximity has no cell boundaries).
func Simulate(mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) *Image {
	img, _ := SimulateCtx(context.Background(), mask, window, opt, cond)
	return img
}

// SimulateCtx is Simulate with cancellation checkpoints: the context
// is checked before normalization and every 64 rects inside each
// kernel pass, so a canceled or timed-out caller gets control back
// mid-image rather than after it.
//
// Callers that simulate the same mask/window pair more than once — FE
// matrices, PV-band corners, multi-corner OPC — should build a
// RasterMask and use SimulateRaster instead, which normalizes once and
// caches per-defocus intensity fields.
func SimulateCtx(ctx context.Context, mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) (*Image, error) {
	return SimulateInto(ctx, nil, mask, window, opt, cond)
}

// SimulateInto is SimulateCtx for a loop that simulates one window
// over and over and keeps nothing of an image once it has measured it
// (the OPC feedback loop): the image is written over prev's pixels
// when prev has the window's grid dimensions, into a fresh grid when
// it does not or is nil. prev, and any image sharing its grid, is
// invalid from the moment of the call, whether or not it succeeds.
func SimulateInto(ctx context.Context, prev *Grid, mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) (*Image, error) {
	// The mask is dropped on return, so the grid its cache holds is
	// this call's alone and may be scaled in place.
	g, err := NewRasterMask(mask, window, opt, cond.Defocus).unitIntensity(ctx, cond.Defocus, prev)
	if err != nil {
		return nil, err
	}
	if cond.Dose != 1 {
		for i := range g.Data {
			g.Data[i] *= cond.Dose
		}
	}
	return &Image{Grid: g, Threshold: opt.Threshold, Cond: cond}, nil
}

// GaussianBlur returns the grid convolved with an isotropic Gaussian
// of the given sigma in pixels, using the separable two-pass method
// with a 3-sigma truncated kernel. It is the blur for inputs that are
// already grids (ILT's continuous mask, LER noise); rect masks go
// through RasterMask and the sparse blur, which this two-pass kernel
// also serves as the test reference for.
func GaussianBlur(g *Grid, sigmaPx float64) *Grid {
	b, _ := gaussianBlurCtx(context.Background(), g, sigmaPx)
	return b
}

func gaussianBlurCtx(ctx context.Context, g *Grid, sigmaPx float64) (*Grid, error) {
	if sigmaPx <= 0 {
		return g.Clone(), nil
	}
	kern := gaussKernel(sigmaPx)
	cBlurPasses.Inc()
	w, h := g.W, g.H
	tmp := getBuf(len(g.Data))
	defer putBuf(tmp)
	out := &Grid{Origin: g.Origin, Pitch: g.Pitch, W: w, H: h, Data: make([]float64, len(g.Data))}
	// Horizontal pass g -> tmp (fully overwritten), then the vertical
	// pass tmp -> out; each is independent across output rows.
	err := forRowChunks(ctx, h, func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			blurRowH(g.Data[j*w:(j+1)*w], tmp[j*w:(j+1)*w], kern)
		}
	})
	if err != nil {
		return nil, err
	}
	err = forRowChunks(ctx, h, func(j0, j1 int) {
		blurVAccRows(tmp, out.Data, w, h, j0, j1, kern, 1)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowChunk is the number of rows in one GaussianBlur work item: coarse
// enough that dispatch costs nothing, fine enough that a blur over a
// full tile yields within a few milliseconds of cancellation.
const rowChunk = 32

// forRowChunks runs fn over disjoint row ranges [j0, j1) covering
// [0, h) through the shared harness fan-out, checking ctx between
// chunks. fn must only write rows in its range.
func forRowChunks(ctx context.Context, h int, fn func(j0, j1 int)) error {
	return harness.ForEach(ctx, runtime.GOMAXPROCS(0), (h+rowChunk-1)/rowChunk, func(c int) {
		fn(c*rowChunk, min(h, (c+1)*rowChunk))
	})
}

// kernCache memoizes normalized kernels by sigma. The working set is
// tiny — one entry per distinct (sigma, defocus) pair in play — and
// the cached slices are shared read-only.
var kernCache sync.Map // sigmaPx float64 -> []float64

// gaussKernel returns the normalized 3-sigma truncated Gaussian kernel
// for the given sigma in pixels. The returned slice is shared: callers
// must not modify it.
func gaussKernel(sigmaPx float64) []float64 {
	if v, ok := kernCache.Load(sigmaPx); ok {
		return v.([]float64)
	}
	r := int(math.Ceil(3 * sigmaPx))
	kern := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigmaPx * sigmaPx))
		kern[i+r] = v
		sum += v
	}
	for i := range kern {
		kern[i] /= sum
	}
	kernCache.Store(sigmaPx, kern)
	return kern
}

// cdfCache memoizes kernel prefix sums by sigma for the sparse blur
// path (sparse.go), shared read-only like the kernels themselves.
var cdfCache sync.Map // sigmaPx float64 -> []float64

// gaussKernelCDF returns the kernel and its prefix sums
// cdf[t] = Σ_{u<=t} kern[u], the closed form of a unit step convolved
// with the kernel. Both slices are shared: callers must not modify.
func gaussKernelCDF(sigmaPx float64) (kern, cdf []float64) {
	kern = gaussKernel(sigmaPx)
	if v, ok := cdfCache.Load(sigmaPx); ok {
		return kern, v.([]float64)
	}
	cdf = make([]float64, len(kern))
	var sum float64
	for i, v := range kern {
		sum += v
		cdf[i] = sum
	}
	cdfCache.Store(sigmaPx, cdf)
	return kern, cdf
}

// blurRowH convolves one row with the kernel under the zero boundary
// condition (mask padding handles edges). The row is split into
// left-edge / interior / right-edge segments so the interior — nearly
// all pixels on production grids — runs the full kernel with no
// per-tap bounds checks.
func blurRowH(row, out, kern []float64) {
	w := len(row)
	r := len(kern) / 2
	if w <= 2*r {
		for i := range out {
			var acc float64
			for k := -r; k <= r; k++ {
				if ii := i + k; ii >= 0 && ii < w {
					acc += kern[k+r] * row[ii]
				}
			}
			out[i] = acc
		}
		return
	}
	for i := 0; i < r; i++ {
		var acc float64
		for k := -i; k <= r; k++ {
			acc += kern[k+r] * row[i+k]
		}
		out[i] = acc
	}
	for i := r; i < w-r; i++ {
		win := row[i-r:]
		var acc float64
		for k, kv := range kern {
			acc += kv * win[k]
		}
		out[i] = acc
	}
	for i := w - r; i < w; i++ {
		var acc float64
		lim := w - 1 - i
		for k := -r; k <= lim; k++ {
			acc += kern[k+r] * row[i+k]
		}
		out[i] = acc
	}
}

// blurVAccRows runs the vertical pass for output rows [j0, j1),
// accumulating dst += weight * (kern ⊛ src) column-wise. Bounds are
// clamped per row, so the inner loops are straight multiply-adds over
// contiguous rows — sequential memory traffic instead of strided
// column walks.
func blurVAccRows(src, dst []float64, w, h, j0, j1 int, kern []float64, weight float64) {
	r := len(kern) / 2
	for j := j0; j < j1; j++ {
		out := dst[j*w : (j+1)*w]
		k0, k1 := -r, r
		if j+k0 < 0 {
			k0 = -j
		}
		if j+k1 > h-1 {
			k1 = h - 1 - j
		}
		for k := k0; k <= k1; k++ {
			kw := weight * kern[k+r]
			row := src[(j+k)*w : (j+k)*w+w]
			for i, v := range row {
				out[i] += kw * v
			}
		}
	}
}

// PrintsAt reports whether the image prints (exceeds threshold) at nm
// coordinates (x, y).
func (im *Image) PrintsAt(x, y float64) bool {
	return im.Sample(x, y) >= im.Threshold
}

// PrintedBitmap returns the binary printed/not-printed raster.
func (im *Image) PrintedBitmap() *Bitmap {
	b := NewBitmap(im.W, im.H)
	b.Origin, b.Pitch = im.Origin, im.Pitch
	for j := 0; j < im.H; j++ {
		row := b.row(j)
		for i, v := range im.Data[j*im.W : (j+1)*im.W] {
			if v >= im.Threshold {
				row[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return b
}

// PrintedRects vectorizes the printed region back into layout
// rectangles (pixel-resolution; rows merged into maximal rects). Used
// by the contour-extraction based flows (post-OPC timing, PV bands).
func (im *Image) PrintedRects() []geom.Rect {
	return im.PrintedBitmap().ToRects()
}
