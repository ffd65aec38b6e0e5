package litho

import (
	"context"
	"fmt"
	"math"
	"sync"
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
