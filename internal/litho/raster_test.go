package litho

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// refSimulate is the golden reference for the optimized kernel: the
// same rasterization, padding, kernel stack, crop, and squaring as the
// production path, but with a naive O(r)-per-pixel separable blur and
// no buffer reuse. The fast interior/edge-split blur must reproduce it
// to float precision.
func refSimulate(mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) *Image {
	rm := NewRasterMask(mask, window, opt, cond.Defocus)
	raster := NewGrid(rm.padded, rm.pitch)
	raster.Rasterize(mask)
	f := defocusFactor(opt, cond.Defocus)
	var wsum float64
	for _, w := range opt.Weights {
		wsum += w
	}
	if wsum == 0 {
		wsum = 1
	}
	amp := make([]float64, len(raster.Data))
	for k, s := range opt.Sigmas {
		w := opt.Weights[k] / wsum
		sigmaPx := s * f / rm.pitch
		if sigmaPx <= 0 {
			for i, v := range raster.Data {
				amp[i] += w * v
			}
			continue
		}
		kern := gaussKernel(sigmaPx)
		r := len(kern) / 2
		tmp := make([]float64, len(raster.Data))
		for j := 0; j < raster.H; j++ {
			for i := 0; i < raster.W; i++ {
				var acc float64
				for q := -r; q <= r; q++ {
					if ii := i + q; ii >= 0 && ii < raster.W {
						acc += kern[q+r] * raster.Data[j*raster.W+ii]
					}
				}
				tmp[j*raster.W+i] = acc
			}
		}
		for j := 0; j < raster.H; j++ {
			for i := 0; i < raster.W; i++ {
				var acc float64
				for q := -r; q <= r; q++ {
					if jj := j + q; jj >= 0 && jj < raster.H {
						acc += kern[q+r] * tmp[jj*raster.W+i]
					}
				}
				amp[j*raster.W+i] += w * acc
			}
		}
	}
	out := NewGrid(window, opt.GridNM)
	di := int(math.Round(float64(window.X0-rm.padded.X0) / out.Pitch))
	dj := int(math.Round(float64(window.Y0-rm.padded.Y0) / out.Pitch))
	for j := 0; j < out.H; j++ {
		for i := 0; i < out.W; i++ {
			ii, jj := i+di, j+dj
			var a float64
			if ii >= 0 && jj >= 0 && ii < raster.W && jj < raster.H {
				a = amp[jj*raster.W+ii]
			}
			out.Data[j*out.W+i] = a * a * cond.Dose
		}
	}
	return &Image{Grid: out, Threshold: opt.Threshold, Cond: cond}
}

// TestBlurGoldenEquivalence checks the optimized simulation pipeline
// against the naive exact-kernel reference on line/space and corner
// fixtures, across defocus and dose, to 1e-6 relative intensity.
func TestBlurGoldenEquivalence(t *testing.T) {
	o := tech.N45().Optics
	var lines []geom.Rect
	for i := int64(0); i < 7; i++ {
		lines = append(lines, geom.R(i*140, 0, i*140+70, 2000))
	}
	corner := []geom.Rect{
		geom.R(0, 0, 70, 800),
		geom.R(0, 730, 600, 800), // L: vertical leg + horizontal leg
		geom.R(300, 200, 520, 420),
	}
	fixtures := []struct {
		name   string
		mask   []geom.Rect
		window geom.Rect
	}{
		{"line-space", lines, geom.R(-200, -200, 1180, 2200)},
		{"corner", corner, geom.R(-200, -200, 800, 1000)},
	}
	conds := []Condition{
		Nominal,
		{Defocus: 60, Dose: 1},
		{Defocus: 120, Dose: 1},
		{Defocus: -60, Dose: 1},
		{Defocus: 80, Dose: 1.08},
		{Defocus: 0, Dose: 0.92},
	}
	for _, fx := range fixtures {
		for _, c := range conds {
			t.Run(fmt.Sprintf("%s/f%g/d%g", fx.name, c.Defocus, c.Dose), func(t *testing.T) {
				got := Simulate(fx.mask, fx.window, o, c)
				want := refSimulate(fx.mask, fx.window, o, c)
				if got.W != want.W || got.H != want.H {
					t.Fatalf("grid shape %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
				}
				worst := 0.0
				for i := range want.Data {
					diff := math.Abs(got.Data[i] - want.Data[i])
					rel := diff / math.Max(1, math.Abs(want.Data[i]))
					if rel > worst {
						worst = rel
					}
				}
				if worst > 1e-6 {
					t.Errorf("max relative intensity error %.3g exceeds 1e-6", worst)
				}
			})
		}
	}
}

// TestFEMatrixMatchesDirectSimulation checks the dose-factored FE
// matrix against one full simulation per (defocus, dose) cell. The
// threshold rescale is mathematically exact, so CDs must agree to
// ULP-level precision (the two paths round (T/d - v) and (T - d*v)/d
// differently).
func TestFEMatrixMatchesDirectSimulation(t *testing.T) {
	o := tech.N45().Optics
	mask := []geom.Rect{geom.R(0, 0, 70, 3000), geom.R(140, 0, 210, 3000)}
	window := geom.R(-300, 1200, 500, 1800)
	defocus := []float64{0, 60, 120}
	dose := []float64{0.92, 1.0, 1.08}
	spec := CDSpec{Target: 70, Tol: 0.10}
	pts, err := FEMatrixCtx(context.Background(), mask, window, o, 35, 1500, true, spec, defocus, dose)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, f := range defocus {
		for _, d := range dose {
			p := pts[i]
			i++
			img := Simulate(mask, window, o, Condition{Defocus: f, Dose: d})
			cd, ok := img.CDAt(35, 1500, true)
			if math.Abs(p.CD-cd) > 1e-9*math.Max(1, math.Abs(cd)) {
				t.Errorf("f=%g d=%g: FE matrix CD %.17g, direct simulation %.17g", f, d, p.CD, cd)
			}
			if want := ok && spec.InSpec(cd); p.OK != want {
				t.Errorf("f=%g d=%g: FE matrix OK=%v, direct simulation OK=%v", f, d, p.OK, want)
			}
		}
	}
}

// TestConcurrentSimulatePooledBuffers drives many simultaneous
// SimulateCtx calls over distinct masks and checks every result
// against a serially computed baseline. Run under -race (make tier1)
// this catches any aliasing of the pooled scratch buffers between
// concurrent simulations.
func TestConcurrentSimulatePooledBuffers(t *testing.T) {
	o := tech.N45().Optics
	window := geom.R(-200, -200, 1200, 2200)
	masks := make([][]geom.Rect, 8)
	for m := range masks {
		w := int64(60 + 10*m)
		for i := int64(0); i < 5; i++ {
			masks[m] = append(masks[m], geom.R(i*(w+70), 0, i*(w+70)+w, 2000))
		}
	}
	baseline := make([]*Image, len(masks))
	for m, mask := range masks {
		baseline[m] = Simulate(mask, window, o, Nominal)
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(masks)*4)
	for rep := 0; rep < 4; rep++ {
		for m := range masks {
			wg.Add(1)
			go func(rep, m int) {
				defer wg.Done()
				img := Simulate(masks[m], window, o, Nominal)
				for i := range img.Data {
					if img.Data[i] != baseline[m].Data[i] {
						errs <- fmt.Sprintf("rep %d mask %d: pixel %d differs from serial baseline", rep, m, i)
						return
					}
				}
			}(rep, m)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// renderAmplitude returns the w x h amplitude field of the window,
// rendered rows rows at a time, and checks the sink is handed every
// window row once, in order.
func renderAmplitude(t *testing.T, mask []geom.Rect, window geom.Rect, opt tech.Optics, defocus float64, rows int) []float64 {
	t.Helper()
	rm := NewRasterMask(mask, window, opt, defocus)
	w, h := gridDims(window, rm.pitch)
	amp := make([]float64, w*h)
	next := 0
	rm.mu.Lock()
	defer rm.mu.Unlock()
	err := rm.renderLocked(context.Background(), defocus, w, h, rows, func(j int, a []float64, _ []bool) {
		if j != next || len(a) != w {
			t.Fatalf("band height %d: sink got row %d (%d px), want row %d (%d px)", rows, j, len(a), next, w)
		}
		next++
		copy(amp[j*w:], a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != h {
		t.Fatalf("band height %d: sink got %d rows of %d", rows, next, h)
	}
	return amp
}

// The band height is not a parameter of the result: whatever the
// height, every pixel receives the same additions in the same order,
// so the amplitude is the single-band amplitude bit for bit, and the
// bitmap the scan thresholds at the production height has the same
// words as the single-band amplitude thresholded whole. Windows are
// shorter than a band, one row taller, and several bands plus a
// remainder; rects lie across the seams, and wholly in the pad rows
// no band computes.
func TestBandedRenderBitIdentical(t *testing.T) {
	o := tech.N45().Optics
	px := int64(o.GridNM)
	seed := rand.Int63()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < 8; c++ {
		cond := Condition{Defocus: []float64{0, 80}[c%2], Dose: []float64{1, 1.07, 0.94}[c%3]}
		w := 40 + rng.Intn(80)
		h := []int{37, 53, bandRows + 1, 2*bandRows + 44}[c%4]
		window := geom.R(-100, 300, -100+int64(w)*px, 300+int64(h)*px)
		pad := SimPadNM(o, cond.Defocus)
		var mask []geom.Rect
		if c > 0 { // case 0 is the empty mask
			reach := window.Bloat(pad + 50)
			for i := 0; i < 4+rng.Intn(20); i++ {
				x := reach.X0 + rng.Int63n(reach.Width())
				y := reach.Y0 + rng.Int63n(reach.Height())
				mask = append(mask, geom.R(x, y, x+1+rng.Int63n(300), y+1+rng.Int63n(900)))
			}
			mask = append(mask,
				geom.R(window.X0+40, window.Y0-20, window.X0+130, window.Y1+20), // a printing line across every seam
				geom.R(window.X0, window.Y0-pad+7, window.X1, window.Y0-12),     // wholly in the pad rows below
				geom.R(window.X0+30, window.Y1+9, window.X1, window.Y1+pad))     // and above
		}

		want := renderAmplitude(t, mask, window, o, cond.Defocus, h)
		for _, rows := range []int{1, 2, 7, h - 1, h + 1} {
			got := renderAmplitude(t, mask, window, o, cond.Defocus, rows)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("case %d (%dx%d px, %+v): band height %d: pixel (%d,%d) = %v, single band %v",
						c, w, h, cond, rows, i%w, i/w, got[i], want[i])
				}
			}
		}

		bits := NewBitmap(w, h)
		for i, a := range want {
			v := a * a
			if cond.Dose != 1 {
				v *= cond.Dose
			}
			bits.Set(i%w, i/w, v >= o.Threshold)
		}
		printed, err := simulatePrinted(context.Background(), mask, window, o, cond)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(printed.words, bits.words) {
			t.Errorf("case %d (%dx%d px, %+v): printed bitmap differs from the single-band amplitude thresholded whole (%d vs %d set)",
				c, w, h, cond, printed.Count(), bits.Count())
		}
		if c > 0 && bits.Count() == 0 {
			t.Errorf("case %d: nothing printed, the comparison above is empty", c)
		}
	}
}

// dyingCtx reports no error the first live times it is asked, then
// context.Canceled: a cancellation that lands at a chosen checkpoint
// inside a render instead of wherever a timer happens to fire.
type dyingCtx struct {
	context.Context
	live atomic.Int64
}

func (c *dyingCtx) Err() error {
	if c.live.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A render canceled between bands returns the context's error, caches
// no half-written grid, and has put its band buffer back: two
// goroutines canceled on one RasterMask leave the free list holding
// that one buffer, and the mask still simulates correctly afterwards.
// Run under -race -count=10.
func TestCancelMidRenderReturnsBand(t *testing.T) {
	o := tech.N45().Optics
	mask := []geom.Rect{geom.R(0, 0, 70, 3000), geom.R(140, 0, 210, 3000)}
	window := geom.R(-200, 0, 400, int64(2*bandRows+44)*int64(o.GridNM)) // three bands
	rm := NewRasterMask(mask, window, o, 0)
	bufFree.drain()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One check before normalization, one per kernel pass of a
			// band: the first band completes and the second is cut short.
			ctx := &dyingCtx{Context: context.Background()}
			ctx.live.Store(int64(1 + len(o.Sigmas) + 1))
			if img, err := SimulateRaster(ctx, rm, Nominal); !errors.Is(err, context.Canceled) || img != nil {
				t.Errorf("canceled render returned (%v, %v), want (nil, context.Canceled)", img, err)
			}
		}()
	}
	wg.Wait()
	if n := len(rm.cache); n != 0 {
		t.Errorf("canceled renders cached %d grids", n)
	}
	_, h := gridDims(window, rm.pitch)
	if count, floats := bufFree.retained(); count != 1 || floats != min(bandRows, h)*rm.rW {
		t.Errorf("free list holds %d buffers (%d floats) after two canceled renders, want the one band buffer (%d floats)",
			count, floats, min(bandRows, h)*rm.rW)
	}

	got, err := SimulateRaster(context.Background(), rm, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if want := Simulate(mask, window, o, Nominal); !reflect.DeepEqual(got.Grid, want.Grid) {
		t.Error("the image of a mask simulated after a canceled render differs from a fresh simulation")
	}
}

// SimulateInto writes over the grid it is handed when that grid has
// the window's dimensions — same backing array, same pixels as a fresh
// SimulateCtx — and allocates when the dimensions differ, leaving the
// grid it could not use alone.
func TestSimulateIntoReusesMatchingGrid(t *testing.T) {
	ctx := context.Background()
	o := tech.N45().Optics
	mask := []geom.Rect{geom.R(0, 0, 70, 900), geom.R(140, 100, 230, 700)}
	window := geom.R(-200, -100, 400, 1000)
	cond := Condition{Defocus: 40, Dose: 1.05}
	want, err := SimulateCtx(ctx, mask, window, o, cond)
	if err != nil {
		t.Fatal(err)
	}

	// A stale image of the same size, somewhere else on the chip.
	prev, err := SimulateCtx(ctx, []geom.Rect{geom.R(5000, 0, 5300, 1100)}, window.Translate(geom.Pt(5000, 0)), o, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateInto(ctx, prev.Grid, mask, window, o, cond)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data[0] != &prev.Data[0] {
		t.Error("a grid of the window's dimensions was not reused")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("image rendered over a stale grid differs from SimulateCtx")
	}

	// A window one pixel taller: the old grid cannot hold it.
	taller := geom.R(window.X0, window.Y0, window.X1, window.Y1+int64(o.GridNM))
	wantTall, err := SimulateCtx(ctx, mask, taller, o, cond)
	if err != nil {
		t.Fatal(err)
	}
	gotTall, err := SimulateInto(ctx, got.Grid, mask, taller, o, cond)
	if err != nil {
		t.Fatal(err)
	}
	if &gotTall.Data[0] == &got.Data[0] || gotTall.H != got.H+1 {
		t.Errorf("a %dx%d grid was reused for a %dx%d window", got.W, got.H, gotTall.W, gotTall.H)
	}
	if !reflect.DeepEqual(gotTall, wantTall) {
		t.Error("image of the resized window differs from SimulateCtx")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the grid that could not be reused was written to")
	}
}

// printedPerPixel is the threshold sink the word-at-a-time one
// replaced, kept as its reference: a full-row sink that looks at every
// amplitude of every row, touched or not, and sets v*v*dose >= thr bit
// by bit.
func printedPerPixel(t *testing.T, mask []geom.Rect, window geom.Rect, opt tech.Optics, cond Condition) *Bitmap {
	t.Helper()
	rm := NewRasterMask(mask, window, opt, cond.Defocus)
	w, h := gridDims(window, rm.pitch)
	b := NewBitmap(w, h)
	b.Origin, b.Pitch = window.LL(), rm.pitch
	rm.mu.Lock()
	defer rm.mu.Unlock()
	err := rm.renderLocked(context.Background(), cond.Defocus, w, h, bandRows, func(j int, a []float64, _ []bool) {
		for i, v := range a {
			b.Set(i, j, v*v*cond.Dose >= opt.Threshold)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The sink builds a word from the amplitudes under it only where a
// footprint reached them and takes the rest as the word 64 amplitudes
// of +0 give. Whatever the window width (a lone tail word, exact words,
// a word and a bit, a scan window's 41), wherever the window's first
// column falls in the padded row's 64-column groups, wherever the mask
// is — all over, in the pad only, nowhere — and whatever 0 thresholds
// to, the bitmap is the per-pixel one.
func TestPrintedMatchesPerPixelReference(t *testing.T) {
	seed := rand.Int63()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	n45 := tech.N45().Optics
	// The same stack with its wide kernel stretched so that the pad, and
	// with it the window's offset in the padded row, is exactly 64 px.
	aligned := n45
	aligned.Sigmas = []float64{35, 106.6}
	offsets := map[bool]int{}
	for _, w := range []int{1, 63, 64, 65, 130, 2600} {
		for c := 0; c < 6; c++ {
			opt := []tech.Optics{n45, aligned}[c%2]
			defocus := []float64{0, 70}[c/2%2]
			px := int64(opt.GridNM)
			h := 3 + rng.Intn(40)
			window := geom.R(-35, 200, -35+int64(w)*px, 200+int64(h)*px)
			pad := SimPadNM(opt, defocus)
			offsets[pad/px%64 == 0]++
			var mask []geom.Rect
			switch c {
			case 0: // empty
			case 1: // in the pad only, right up against the window
				mask = []geom.Rect{
					geom.R(window.X0-pad, window.Y0, window.X0-px, window.Y1),
					geom.R(window.X1+px, window.Y0-pad, window.X1+pad, window.Y1)}
			default:
				reach := window.Bloat(pad + 50)
				for i := 0; i < 1+rng.Intn(6); i++ {
					x := reach.X0 + rng.Int63n(reach.Width())
					y := reach.Y0 + rng.Int63n(reach.Height())
					mask = append(mask, geom.R(x, y, x+1+rng.Int63n(400), y+1+rng.Int63n(400)))
				}
			}
			// 1e-9 prints every kernel tail: any touched pixel a sink
			// takes for blank shows.
			for ti, thr := range []float64{0.3, 1e-9, 0, -1} {
				opt.Threshold = thr
				cond := Condition{Defocus: defocus, Dose: []float64{1, 0.9, 0}[(c+ti)%3]}
				got, err := simulatePrinted(context.Background(), mask, window, opt, cond)
				if err != nil {
					t.Fatal(err)
				}
				want := printedPerPixel(t, mask, window, opt, cond)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("w=%d case %d (%dx%d px, thr %g, %+v, pad %d px): printed bitmap has %d bits set, per-pixel reference %d",
						w, c, w, h, thr, cond, pad/px, got.Count(), want.Count())
				}
				if blank := 0*cond.Dose >= thr; c == 0 && (got.Count() == w*h) != blank {
					t.Errorf("w=%d empty mask, thr %g, dose %g: %d of %d bits set", w, thr, cond.Dose, got.Count(), w*h)
				}
			}
		}
	}
	if offsets[true] == 0 || offsets[false] == 0 {
		t.Errorf("window offsets in the padded row: %d word-aligned, %d not; want both", offsets[true], offsets[false])
	}
}

// A band is zero when a render takes it and zero when a completed
// render puts it back — the render clears what its footprints touched
// and nothing else was written — and a render that inherits a band a
// canceled one left dirty gets it zeroed: two goroutines on one
// RasterMask, each canceled mid-band and then run to completion, both
// produce the bits of a render that never shared a buffer. Run under
// -race -count=10.
func TestBandReturnsZeroAndSurvivesCancel(t *testing.T) {
	o := tech.N45().Optics
	mask := []geom.Rect{geom.R(0, 0, 70, 3000), geom.R(140, 0, 210, 3000), geom.R(-150, 900, 380, 990)}
	window := geom.R(-200, 0, 400, int64(2*bandRows+44)*int64(o.GridNM)) // three bands
	bufFree.drain()
	want, err := simulatePrinted(context.Background(), mask, window, o, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if want.Count() == 0 {
		t.Fatal("nothing printed")
	}
	bufFree.mu.Lock()
	if len(bufFree.free) != 1 {
		t.Fatalf("free list holds %d buffers after one render, want its band", len(bufFree.free))
	}
	band := bufFree.free[0]
	for i, v := range band[:cap(band)] {
		if math.Float64bits(v) != 0 {
			t.Fatalf("band amplitude %d of %d is %v after a completed render, want +0", i, cap(band), v)
		}
	}
	bufFree.mu.Unlock()

	rm := NewRasterMask(mask, window, o, 0)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cut short between the second band's two kernel passes: the
			// first band was blurred, sunk and cleared, the second is dirty.
			ctx := &dyingCtx{Context: context.Background()}
			ctx.live.Store(int64(1 + len(o.Sigmas) + 1))
			if b, err := rm.printed(ctx, Nominal); !errors.Is(err, context.Canceled) || b != nil {
				t.Errorf("canceled render returned (%v, %v), want (nil, context.Canceled)", b, err)
			}
			got, err := rm.printed(context.Background(), Nominal)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("render after a canceled one: %d bits set, want %d", got.Count(), want.Count())
			}
		}()
	}
	wg.Wait()
}
