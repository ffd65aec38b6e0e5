package litho

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// TestSparseBlurMatchesDense verifies the per-rect separable
// decomposition against the dense rasterize-then-blur path on random
// rect sets: identical discrete sums in a different order, so the two
// fields must agree to FP rounding.
func TestSparseBlurMatchesDense(t *testing.T) {
	for c := 0; c < 30; c++ {
		seed := rand.Int63()
		rng := rand.New(rand.NewSource(seed))
		w := 16 + rng.Intn(60)
		h := 16 + rng.Intn(60)
		pitch := []float64{1, 2, 5}[rng.Intn(3)]
		padded := geom.Rect{X0: -int64(3 * pitch), Y0: -int64(2 * pitch),
			X1: -int64(3*pitch) + int64(float64(w)*pitch), Y1: -int64(2*pitch) + int64(float64(h)*pitch)}
		var rs []geom.Rect
		for i := 0; i < 1+rng.Intn(12); i++ {
			x := padded.X0 - 10 + rng.Int63n(int64(float64(w)*pitch)+20)
			y := padded.Y0 - 10 + rng.Int63n(int64(float64(h)*pitch)+20)
			rs = append(rs, geom.Rect{X0: x, Y0: y,
				X1: x + 1 + rng.Int63n(int64(20*pitch)), Y1: y + 1 + rng.Int63n(int64(20*pitch))})
		}
		norm := geom.Normalize(rs)
		sigmaPx := 0.5 + 4*rng.Float64()
		kern, cdf := gaussKernelCDF(sigmaPx)
		weight := 0.25 + rng.Float64()

		// Dense reference: rasterize, then two-pass separable blur.
		raster := Grid{Origin: padded.LL(), Pitch: pitch, W: w, H: h, Data: make([]float64, w*h)}
		raster.Rasterize(norm)
		tmp := make([]float64, w*h)
		want := make([]float64, w*h)
		for j := 0; j < h; j++ {
			blurRowH(raster.Data[j*w:(j+1)*w], tmp[j*w:(j+1)*w], kern)
		}
		blurVAccRows(tmp, want, w, h, 0, h, kern, weight)

		got := make([]float64, w*h)
		if err := sparseBlurAcc(context.Background(), clipSpans(norm, padded, pitch, w, h), w, 0, h, kern, cdf, weight, got, make([]float64, w+h), make([]bool, (w+63)/64)); err != nil {
			t.Fatal(err)
		}

		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-12 {
				t.Fatalf("seed=%d pixel %d (%d,%d): sparse=%g dense=%g diff=%g",
					seed, i, i%w, i/w, got[i], want[i], d)
			}
		}
	}
}

// TestSparseBlurCoverageClip pins the grid-edge behaviour: a rect
// hanging off every side of the raster must contribute exactly the
// clipped coverage, matching Grid.paint's pixel clamping.
func TestSparseBlurCoverageClip(t *testing.T) {
	w, h := 12, 10
	padded := geom.Rect{X0: 0, Y0: 0, X1: int64(w), Y1: int64(h)}
	over := []geom.Rect{{X0: -5, Y0: -5, X1: int64(w) + 5, Y1: int64(h) + 5}}
	kern, cdf := gaussKernelCDF(1.5)

	raster := Grid{Origin: padded.LL(), Pitch: 1, W: w, H: h, Data: make([]float64, w*h)}
	raster.Rasterize(over)
	tmp := make([]float64, w*h)
	want := make([]float64, w*h)
	for j := 0; j < h; j++ {
		blurRowH(raster.Data[j*w:(j+1)*w], tmp[j*w:(j+1)*w], kern)
	}
	blurVAccRows(tmp, want, w, h, 0, h, kern, 1)

	got := make([]float64, w*h)
	if err := sparseBlurAcc(context.Background(), clipSpans(over, padded, 1, w, h), w, 0, h, kern, cdf, 1, got, make([]float64, w+h), make([]bool, (w+63)/64)); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12 {
			t.Fatalf("pixel (%d,%d): sparse=%g dense=%g", i%w, i/w, got[i], want[i])
		}
	}
}

// gridBlurSimulate is Simulate by the other route: rasterize the
// mask onto the padded grid, run the two-pass grid blur once per
// kernel, then crop, square and dose-scale. It shares the pad and grid
// geometry with RasterMask and nothing else.
func gridBlurSimulate(mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) *Image {
	rm := NewRasterMask(mask, window, opt, cond.Defocus)
	raster := NewGrid(rm.padded, rm.pitch)
	raster.Rasterize(mask)
	f := defocusFactor(opt, cond.Defocus)
	var wsum float64
	for _, w := range opt.Weights {
		wsum += w
	}
	amp := make([]float64, len(raster.Data))
	for k, s := range opt.Sigmas {
		for i, v := range GaussianBlur(raster, s*f/rm.pitch).Data {
			amp[i] += opt.Weights[k] / wsum * v
		}
	}
	out := NewGrid(window, rm.pitch)
	di := int(math.Round(float64(window.X0-rm.padded.X0) / rm.pitch))
	dj := int(math.Round(float64(window.Y0-rm.padded.Y0) / rm.pitch))
	for j := 0; j < out.H; j++ {
		for i := 0; i < out.W; i++ {
			a := amp[(j+dj)*raster.W+i+di]
			out.Data[j*out.W+i] = a * a * cond.Dose
		}
	}
	return &Image{Grid: out, Threshold: opt.Threshold, Cond: cond}
}

// checkAgainstGridBlur asserts the properties every mask must have
// now that the sparse blur is the only route: Simulate equals the
// rasterize-then-blur reference to 1e-9, and both the scan's
// amplitude-thresholded bitmap and a RasterMask's Image are Simulate's,
// bit for bit.
func checkAgainstGridBlur(t *testing.T, mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) {
	t.Helper()
	ctx := context.Background()
	img, err := Simulate(ctx, mask, window, opt, cond)
	if err != nil {
		t.Fatal(err)
	}
	want := gridBlurSimulate(mask, window, opt, cond)
	if img.W != want.W || img.H != want.H {
		t.Fatalf("%+v: grid %dx%d, reference %dx%d", cond, img.W, img.H, want.W, want.H)
	}
	for i := range want.Data {
		if d := math.Abs(img.Data[i] - want.Data[i]); !(d <= 1e-9) {
			t.Fatalf("%+v: pixel (%d,%d): sparse %g, rasterize+GaussianBlur %g (diff %g)",
				cond, i%img.W, i/img.W, img.Data[i], want.Data[i], d)
		}
	}
	printed, err := simulatePrinted(ctx, mask, window, opt, cond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(printed, img.PrintedBitmap()) {
		t.Errorf("%+v: scan-path printed bitmap differs from Simulate+PrintedBitmap", cond)
	}
	shared, err := NewRasterMask(mask, window, opt, cond.Defocus).Image(ctx, cond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared.Grid, img.Grid) {
		t.Errorf("%+v: RasterMask image differs from Simulate", cond)
	}
}

// The masks the retired op-count router would have sent down the
// dense raster blur: so many tiny rects in so small a window that
// their summed kernel footprints outweigh two passes over the whole
// raster. Design-rule-legal geometry never looks like this (see
// EXPERIMENTS.md R16), which is why that arm never ran; these inputs
// now take the sparse blur like everything else and must still match
// the raster route.
func TestSparseBlurOnDenseFavouringMask(t *testing.T) {
	o := tech.N45().Optics
	window := geom.R(0, 0, 400, 400)
	var mask []geom.Rect
	for y := int64(0); y < 400; y += 10 {
		for x := int64(0); x < 400; x += 10 {
			mask = append(mask,
				geom.R(x+1, y+2, x+3+x%7, y+4+y%5), // 2-8 nm dot: a pixel or two at most
				geom.R(x+9, y, x+10, y+9))          // 1 nm sliver: a fifth of a pixel wide
		}
	}
	for _, cond := range []Condition{Nominal, {Defocus: 200, Dose: 1.07}} {
		// The retired heuristic, restated: one (klen+2)^2 footprint per
		// rect against 2*W*H*klen for the raster passes, at the narrowest
		// kernel (the least dense-favouring of the stack).
		rm := NewRasterMask(mask, window, o, cond.Defocus)
		klen := int64(len(gaussKernel(o.Sigmas[0] * defocusFactor(o, cond.Defocus) / rm.pitch)))
		rects := int64(len(geom.Normalize(mask)))
		if sparse, dense := rects*(klen+2)*(klen+2), 2*int64(rm.rW)*int64(rm.rH)*klen; sparse <= dense {
			t.Fatalf("%+v: %d rects cost %d sparse ops against %d dense: not a dense-favouring mask", cond, rects, sparse, dense)
		}
		checkAgainstGridBlur(t, mask, window, o, cond)
	}
}

// fuzzRects decodes four bytes per rect into geometry around a
// 100x80 nm window at the origin: corners from -64 nm (negative
// coordinates, beyond the pad at small defocus) to +191 nm (wholly
// outside the padded grid), sides 0-47 nm (zero-area, sub-pixel,
// multi-pixel), so random bytes produce overlapping, abutting,
// straddling and outlying rects alike.
func fuzzRects(data []byte) []geom.Rect {
	var rs []geom.Rect
	for ; len(data) >= 4 && len(rs) < 64; data = data[4:] {
		x, y := int64(data[0])-64, int64(data[1])-64
		rs = append(rs, geom.R(x, y, x+int64(data[2]%48), y+int64(data[3]%48)))
	}
	return rs
}

// checkBandEqualsWhole accumulates one kernel pass over a non-empty
// row range of the mask's padded grid (pad rows included), chosen by
// rowLo and rowN, and requires every pixel to be, bit for bit, the
// pixel of the same pass over the whole grid as one band — and every
// column outside the groups the pass marked touched to be exactly +0,
// which is what lets the sink skip it and the render not clear it.
func checkBandEqualsWhole(t *testing.T, mask []geom.Rect, window geom.Rect, opt tech.Optics, defocus float64, rowLo, rowN uint8) {
	t.Helper()
	ctx := context.Background()
	rm := NewRasterMask(mask, window, opt, defocus)
	j0 := int(rowLo) % rm.rH
	j1 := j0 + 1 + int(rowN)%(rm.rH-j0)
	spans := clipSpans(geom.Normalize(mask), rm.padded, rm.pitch, rm.rW, rm.rH)
	kern, cdf := gaussKernelCDF(opt.Sigmas[0] * defocusFactor(opt, defocus) / rm.pitch)
	prof := make([]float64, rm.rW+rm.rH)
	whole := make([]float64, rm.rW*rm.rH)
	if err := sparseBlurAcc(ctx, spans, rm.rW, 0, rm.rH, kern, cdf, opt.Weights[0], whole, prof, make([]bool, (rm.rW+63)/64)); err != nil {
		t.Fatal(err)
	}
	band := make([]float64, (j1-j0)*rm.rW)
	touched := make([]bool, (rm.rW+63)/64)
	if err := sparseBlurAcc(ctx, spans, rm.rW, j0, j1, kern, cdf, opt.Weights[0], band, prof, touched); err != nil {
		t.Fatal(err)
	}
	for i, v := range band {
		if want := whole[j0*rm.rW+i]; math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("rows [%d,%d) of %d: pixel (%d,%d) = %v as a band, %v in the whole grid",
				j0, j1, rm.rH, i%rm.rW, j0+i/rm.rW, v, want)
		}
		if !touched[i%rm.rW>>6] && math.Float64bits(v) != 0 {
			t.Fatalf("rows [%d,%d) of %d: pixel (%d,%d) = %v (bits %#x) in a column group the pass did not mark touched",
				j0, j1, rm.rH, i%rm.rW, j0+i/rm.rW, v, math.Float64bits(v))
		}
	}
}

// FuzzSparseBlur holds the sparse blur to the rasterize-then-blur
// reference on arbitrary rect sets, pitches and defocus, an arbitrary
// band of its rows to the same rows of the whole grid, every column
// the band did not mark touched to +0, and the render under the
// assembly kernel to the render under the Go loops (10 s in make
// fuzz-smoke).
func FuzzSparseBlur(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(255), []byte{64, 64, 20, 20})
	f.Add(uint8(1), uint8(2), uint8(17), uint8(0), []byte{64, 64, 10, 10, 74, 64, 10, 10, 64, 74, 20, 1})   // abutting, one a sliver; a one-row band
	f.Add(uint8(2), uint8(1), uint8(3), uint8(40), []byte{0, 0, 47, 47, 255, 255, 47, 47, 100, 100, 0, 30}) // corners outside, zero-area
	f.Add(uint8(0), uint8(3), uint8(90), uint8(7), []byte{60, 60, 3, 3, 61, 61, 3, 3, 20, 70, 47, 2, 160, 10, 9, 47})
	f.Fuzz(func(t *testing.T, pitchSel, focusSel, rowLo, rowN uint8, data []byte) {
		o := tech.Optics{
			Sigmas: []float64{6, 14}, Weights: []float64{0.8, 0.2}, Threshold: 0.3, DefocusScale: 150,
			GridNM: []float64{5, 2, 1}[pitchSel%3],
		}
		cond := Condition{Defocus: float64(focusSel%4) * 60, Dose: 1 + float64(focusSel%3)*0.04}
		mask, window := fuzzRects(data), geom.R(0, 0, 100, 80)
		checkAgainstGridBlur(t, mask, window, o, cond)
		checkBandEqualsWhole(t, mask, window, o, cond.Defocus, rowLo, rowN)
		checkArmsAgree(t, mask, window, o, cond)
	})
}

// What used to be served silently or not at all is an error, never a
// panic and never a guess: a kernel with no width (the deleted raster
// identity branch) and a defocus the mask's pad was not sized for.
func TestSimulateRejectsBadKernelAndDefocus(t *testing.T) {
	ctx := context.Background()
	mask := []geom.Rect{geom.R(0, 0, 70, 400)}
	window := geom.R(-100, 0, 200, 400)
	withSigmas := func(s ...float64) tech.Optics {
		o := tech.N45().Optics
		o.Sigmas = s
		return o
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"negative sigma", func() error {
			_, err := Simulate(ctx, mask, window, withSigmas(-35, 90), Condition{Defocus: 60, Dose: 1})
			return err
		}, "sigma"},
		{"NaN sigma on the scan path", func() error {
			_, err := simulatePrinted(ctx, mask, window, withSigmas(math.NaN(), 90), Nominal)
			return err
		}, "sigma"},
		{"defocus past the budget", func() error {
			_, err := NewRasterMask(mask, window, tech.N45().Optics, 60).Image(ctx, Condition{Defocus: 61, Dose: 1})
			return err
		}, "budget"},
		{"negative defocus past the budget", func() error {
			_, err := NewRasterMask(mask, window, tech.N45().Optics, 60).Image(ctx, Condition{Defocus: -90, Dose: 1})
			return err
		}, "budget"},
		{"canceled before the first pass", func() error {
			dead, cancel := context.WithCancel(ctx)
			cancel()
			_, err := Simulate(dead, mask, window, tech.N45().Optics, Nominal)
			return err
		}, context.Canceled.Error()},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// A kernel with no width is the kernel's error from every entry point
// that renders an intensity field, with nothing beside it: the one-shot
// Simulate once dropped the error and handed its callers a nil image to
// dereference.
func TestZeroSigmaIsAnErrorFromEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	o := tech.N45().Optics
	o.Sigmas = []float64{35, 0}
	mask := []geom.Rect{geom.R(0, 0, 70, 400)}
	window := geom.R(-100, 0, 200, 400)
	check := func(entry string, empty bool, err error) {
		if err == nil || !strings.Contains(err.Error(), "non-positive sigma") || !empty {
			t.Errorf("%s: err = %v (result empty %v), want only the kernel's non-positive sigma error", entry, err, empty)
		}
	}
	img, err := Simulate(ctx, mask, window, o, Nominal)
	check("Simulate", img == nil, err)
	img, err = NewRasterMask(mask, window, o, 80).Image(ctx, Condition{Defocus: 80, Dose: 1})
	check("RasterMask.Image", img == nil, err)
	pts, err := NewRasterMask(mask, window, o, 80).FEMatrix(ctx, 35, 200, true, CDSpec{Target: 70, Tol: 0.1}, []float64{0, 80}, []float64{0.95, 1})
	check("RasterMask.FEMatrix", len(pts) == 0, err)
}
