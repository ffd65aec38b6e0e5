package litho

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// overlayOracle is the PV band's overlays as they were computed before
// the band was streamed: every corner simulated on a handle of its own
// with the band's defocus budget, its unit-dose image thresholded pixel
// by pixel at the corner's dose (withDose + PrintedBitmap), and the
// bitmaps ANDed and ORed whole.
func overlayOracle(t *testing.T, mask []geom.Rect, window geom.Rect, o tech.Optics, corners []Condition) (always, ever *Bitmap) {
	t.Helper()
	maxF := 0.0
	for _, c := range corners {
		maxF = max(maxF, math.Abs(c.Defocus))
	}
	for _, c := range corners {
		img, err := NewRasterMask(mask, window, o, maxF).Image(context.Background(), Condition{Defocus: c.Defocus, Dose: 1})
		if err != nil {
			t.Fatal(err)
		}
		b := img.withDose(c.Dose).PrintedBitmap()
		if always == nil {
			always, ever = b.clone(), b
			continue
		}
		for i, w := range b.words {
			always.words[i] &= w
			ever.words[i] |= w
		}
	}
	return always, ever
}

// pvBandOracle vectorizes the oracle's overlays as the band does.
func pvBandOracle(t *testing.T, mask []geom.Rect, window geom.Rect, o tech.Optics, corners []Condition) PVBand {
	t.Helper()
	always, ever := overlayOracle(t, mask, window, o, corners)
	band := ever.clone()
	for i, w := range always.words {
		band.words[i] &^= w
	}
	return PVBand{Always: always.ToRects(), Ever: ever.ToRects(), Band: band.ToRects()}
}

// The streamed overlays are the oracle's, bit for bit (tail bits
// included), and so is the band vectorized from them: on random masks under
// the standard corners, on dose-only sets, on negative and repeated
// defoci, on one corner, and under optics whose threshold is not
// positive, where an untouched word prints whole. The windows are 161
// and 601 pixels wide, so rows end in a partial word and most words of
// the wide one no footprint reaches.
func TestPVBandMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	randomMask := func(window geom.Rect) []geom.Rect {
		var rs []geom.Rect
		for range 1 + rng.Intn(8) {
			x := window.X0 + rng.Int63n(window.Width())
			y := window.Y0 - 200 + rng.Int63n(window.Height()+400)
			rs = append(rs, geom.R(x, y, x+40+rng.Int63n(200), y+40+rng.Int63n(600)))
		}
		return rs
	}
	lines := []geom.Rect{geom.R(0, 0, 70, 3000), geom.R(140, 0, 210, 1450), geom.R(140, 1550, 210, 3000), geom.R(300, 0, 400, 3000)}
	narrow, wide := geom.R(-200, 1200, 605, 1800), geom.R(-1500, 1000, 1505, 2000)
	zero, negative := opt(), opt()
	zero.Threshold, negative.Threshold = 0, -0.1
	type pvCase struct {
		name    string
		mask    []geom.Rect
		window  geom.Rect
		o       tech.Optics
		corners []Condition
	}
	cases := []pvCase{
		{"standard", lines, narrow, opt(), StandardCorners(120, 0.05)},
		{"standard wide", lines, wide, opt(), StandardCorners(80, 0.08)},
		{"dose only", lines, narrow, opt(), []Condition{{0, 0.9}, {0, 1}, {0, 1.1}}},
		{"negative and repeated defoci", lines, wide, opt(),
			[]Condition{{-80, 1}, {80, 1}, {80, 0.95}, {-40, 1.05}, {-40, 1.05}, {0, 1}, {40, 0.97}}},
		{"one corner", lines, narrow, opt(), []Condition{{60, 1}}},
		{"zero threshold", lines, wide, zero, StandardCorners(120, 0.05)},
		{"negative threshold", lines, narrow, negative, []Condition{{0, 1}, {100, 1.02}}},
		{"zero and negative dose", lines, narrow, opt(), []Condition{{0, 1}, {0, 0}, {50, -1}}},
		{"empty mask", nil, wide, opt(), StandardCorners(120, 0.05)},
	}
	for i := range 12 {
		win := narrow
		if i%2 == 1 {
			win = wide
		}
		cases = append(cases, pvCase{"random", randomMask(win), win, opt(), StandardCorners(40+float64(rng.Intn(100)), 0.05)})
	}
	ctx := context.Background()
	for _, c := range cases {
		always, ever, err := overlayCorners(ctx, c.mask, c.window, c.o, c.corners)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if wantAlways, wantEver := overlayOracle(t, c.mask, c.window, c.o, c.corners); !reflect.DeepEqual(always, wantAlways) || !reflect.DeepEqual(ever, wantEver) {
			t.Errorf("%s (%v): streamed overlays differ from the per-corner bitmaps (%d/%d bits set, oracle %d/%d)", c.name, c.corners,
				always.Count(), ever.Count(), wantAlways.Count(), wantEver.Count())
		}
		got, err := ComputePVBandCtx(ctx, c.mask, c.window, c.o, c.corners)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := pvBandOracle(t, c.mask, c.window, c.o, c.corners); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%v): streamed band differs from the per-corner bitmaps' (%d/%d/%d rects, oracle %d/%d/%d)", c.name, c.corners,
				len(got.Always), len(got.Ever), len(got.Band), len(want.Always), len(want.Ever), len(want.Band))
		}
	}
}

// The band renders no grid: one convolution stack, a raster miss, per
// distinct |defocus| of its corners, and nothing from NewGrid or from a
// spent grid.
func TestPVBandRendersNoGrid(t *testing.T) {
	withObs(t)
	mask := []geom.Rect{geom.R(0, 0, 70, 3000), geom.R(140, 0, 210, 3000)}
	win := geom.R(-200, 1200, 400, 1800)
	for _, c := range []struct {
		corners []Condition
		misses  int64
	}{
		{StandardCorners(120, 0.05), 2},
		{[]Condition{{0, 0.9}, {0, 1.1}}, 1},
		{[]Condition{{-80, 1}, {80, 1}, {40, 1}, {0, 1}}, 3},
	} {
		before := snapKernel()
		fresh, reused := gridCounts()
		if _, err := ComputePVBandCtx(context.Background(), mask, win, opt(), c.corners); err != nil {
			t.Fatal(err)
		}
		f, r := gridCounts()
		if misses := snapKernel().minus(before).miss; misses != c.misses || f != fresh || r != reused {
			t.Errorf("%v: %d misses, %d new and %d reused grids; want %d misses and no grid", c.corners, misses, f-fresh, r-reused, c.misses)
		}
	}
}
