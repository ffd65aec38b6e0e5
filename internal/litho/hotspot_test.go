package litho

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// The scan tests below pin empirically validated printed-image
// results on N45 nominal: a drawn 30nm neck on a 90nm wire prints
// four pinch markers (two pull-back markers at the wire's line ends,
// two at the neck), and the interior filter keeps only the neck pair.

func neckV(x, y int64) []geom.Rect {
	return []geom.Rect{
		geom.R(x, y, x+90, y+700),
		geom.R(x+30, y+700, x+60, y+900),
		geom.R(x, y+900, x+90, y+1600),
	}
}

func TestScanInteriorFiltersLineEnds(t *testing.T) {
	tt := tech.N45()
	ctx := context.Background()
	plain, err := ScanLayer(ctx, neckV(0, 0), tt, tech.Metal1, ScanOpts{Cond: Nominal})
	if err != nil {
		t.Fatal(err)
	}
	wantPlain := []Hotspot{
		{Pinch, geom.R(25, 25, 65, 40)},     // bottom line end
		{Pinch, geom.R(25, 675, 65, 690)},   // neck, lower
		{Pinch, geom.R(25, 910, 65, 925)},   // neck, upper
		{Pinch, geom.R(25, 1560, 65, 1575)}, // top line end
	}
	if !reflect.DeepEqual(plain, wantPlain) {
		t.Fatalf("plain scan = %v, want %v", plain, wantPlain)
	}
	interior, err := ScanLayer(ctx, neckV(0, 0), tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(interior, wantPlain[1:3]) {
		t.Fatalf("interior scan = %v, want %v", interior, wantPlain[1:3])
	}
	if got, want := plain[1].String(), "pinch @ "+geom.R(25, 675, 65, 690).String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestScanInteriorHorizontalNeck(t *testing.T) {
	// Same neck rotated 90 degrees: the filter must probe along X.
	tt := tech.N45()
	mask := []geom.Rect{
		geom.R(0, 0, 700, 90),
		geom.R(700, 30, 900, 60),
		geom.R(900, 0, 1600, 90),
	}
	interior, err := ScanLayer(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Hotspot{
		{Pinch, geom.R(675, 25, 690, 65)},
		{Pinch, geom.R(910, 25, 925, 65)},
	}
	if !reflect.DeepEqual(interior, want) {
		t.Fatalf("interior scan = %v, want %v", interior, want)
	}
}

func TestScanInteriorKeepsBridges(t *testing.T) {
	// Wide pads at a drawn 50nm gap print bridged; the interior filter
	// never drops bridges.
	tt := tech.N45()
	mask := []geom.Rect{geom.R(0, 0, 2000, 700), geom.R(0, 750, 2000, 1450)}
	interior, err := ScanLayer(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Hotspot{{Bridge, geom.R(60, 705, 1940, 745)}}
	if !reflect.DeepEqual(interior, want) {
		t.Fatalf("interior scan = %v, want %v", interior, want)
	}
	if got := interior[0].Kind.String(); got != "bridge" {
		t.Fatalf("Bridge.String() = %q", got)
	}
}

func TestScanTranslationInvariant(t *testing.T) {
	// The same neck placed elsewhere yields the same markers, shifted.
	tt := tech.N45()
	ctx := context.Background()
	base, err := ScanLayer(ctx, neckV(0, 0), tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := ScanLayer(ctx, neckV(3000, 300), tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != len(base) {
		t.Fatalf("moved scan = %v, base %v", moved, base)
	}
	for i := range base {
		want := Hotspot{base[i].Kind, geom.R(base[i].Box.X0+3000, base[i].Box.Y0+300,
			base[i].Box.X1+3000, base[i].Box.Y1+300)}
		if moved[i] != want {
			t.Fatalf("moved[%d] = %v, want %v", i, moved[i], want)
		}
	}
}

func TestScanNeckAtWindowSeam(t *testing.T) {
	// A neck straddling the y=12000 scan-grid seam is seen by both
	// windows through their pads; the layer scan must report each
	// marker exactly once, and the interior filter must still keep
	// exactly the neck pair. The far rect stretches the bbox so
	// ScanGrid emits a second window row.
	tt := tech.N45()
	mask := []geom.Rect{
		geom.R(0, 11200, 90, 11900),
		geom.R(30, 11900, 60, 12100),
		geom.R(0, 12100, 90, 12800),
		geom.R(20000, 23000, 20090, 23700),
	}
	if n := len(ScanGrid(geom.BBoxOf(mask))); n < 4 {
		t.Fatalf("test geometry spans only %d scan windows, want >= 4", n)
	}
	interior, err := ScanLayer(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Hotspot{
		{Pinch, geom.R(25, 11875, 65, 11890)},
		{Pinch, geom.R(25, 12110, 65, 12125)},
	}
	if !reflect.DeepEqual(interior, want) {
		t.Fatalf("seam scan = %v, want %v", interior, want)
	}
}

func TestScanDegenerateRects(t *testing.T) {
	// Zero-width and zero-height drawn slivers must not crash the scan
	// or invent hotspots; the clean line's pull-back markers are
	// dropped by the interior filter.
	tt := tech.N45()
	mask := []geom.Rect{
		geom.R(0, 0, 0, 1000),       // zero width
		geom.R(500, 500, 1500, 500), // zero height
		geom.R(3000, 0, 3090, 1000), // clean line
	}
	interior, err := ScanLayer(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(interior) != 0 {
		t.Fatalf("degenerate mask produced hotspots: %v", interior)
	}
	// A layer of only degenerate slivers: empty grid, no error.
	only := []geom.Rect{geom.R(0, 0, 0, 1000)}
	hs, err := ScanLayer(context.Background(), only, tt, tech.Metal1, ScanOpts{Cond: Nominal})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 0 {
		t.Fatalf("zero-width-only mask produced hotspots: %v", hs)
	}
}

func TestStitchWindowsKeepsFirstAndSorts(t *testing.T) {
	// The seam rule every window-by-window scan shares: a box reported
	// by two windows is kept once, from the first window in scan
	// order, and the stitched list is in SortHotspots order.
	low := Hotspot{Pinch, geom.R(25, 11875, 65, 11890)}
	seam := Hotspot{Pinch, geom.R(25, 12110, 65, 12125)}
	far := Hotspot{Bridge, geom.R(900, 100, 990, 140)}
	got := StitchWindows([][]Hotspot{{low, seam}, nil, {{Bridge, seam.Box}, far}})
	want := []Hotspot{far, low, seam}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stitched %v, want %v", got, want)
	}
	if got := StitchWindows(make([][]Hotspot, 3)); got != nil {
		t.Fatalf("stitch of empty windows = %v, want nil", got)
	}
}

func TestScanWindowPixelsIsThePaddedGrid(t *testing.T) {
	// ScanWindowPixels is what the tile wire bounds a window by before
	// allocating: it must be the padded grid ScanWindowCtx renders.
	o := tech.N45().Optics
	for _, c := range []struct {
		defocus float64
		w, h    int64
	}{{0, 12000, 12000}, {110, 12000, 3000}, {-60, 1, 7}} {
		rm := NewRasterMask(nil, geom.R(0, 0, c.w, c.h).Bloat(ScanPadNM), o, c.defocus)
		if got, want := ScanWindowPixels(o, c.defocus, c.w, c.h), float64(rm.rW)*float64(rm.rH); got != want {
			t.Errorf("%+v: ScanWindowPixels = %v, padded grid holds %v", c, got, want)
		}
	}
	// A window no buffer could hold comes back huge, not wrapped.
	if px := ScanWindowPixels(o, 0, 1<<40, 1<<40); !(px > 1<<62) {
		t.Fatalf("2^40 nm window = %v pixels, want > 2^62", px)
	}
}

func TestInteriorDefectProbeAxis(t *testing.T) {
	// Direct unit check of the probe geometry: a wide marker probes
	// along Y from its edges, a tall marker along X.
	wire := []geom.Rect{geom.R(0, 0, 90, 1600)}
	wide := Hotspot{Pinch, geom.R(25, 675, 65, 690)}
	if !InteriorDefect(wide, wire, 42) {
		t.Fatalf("mid-wire wide marker not interior")
	}
	end := Hotspot{Pinch, geom.R(25, 25, 65, 40)}
	if InteriorDefect(end, wire, 42) {
		t.Fatalf("line-end marker treated as interior")
	}
	hwire := []geom.Rect{geom.R(0, 0, 1600, 90)}
	tall := Hotspot{Pinch, geom.R(675, 25, 690, 65)}
	if !InteriorDefect(tall, hwire, 42) {
		t.Fatalf("mid-wire tall marker not interior")
	}
	if !InteriorDefect(Hotspot{Bridge, geom.R(0, 0, 10, 10)}, nil, 42) {
		t.Fatalf("bridge dropped by interior filter")
	}
}

// The scan thresholds printed bits straight from the amplitude buffer;
// they must be the bits Simulate + PrintedBitmap produce through
// the float intensity grid, at any dose and defocus.
func TestSimulatePrintedMatchesPrintedBitmap(t *testing.T) {
	tt := tech.N45()
	ctx := context.Background()
	mask := append(neckV(0, 0), geom.R(160, 0, 250, 1600), geom.R(-400, 300, -40, 420))
	window := geom.R(-503, -498, 749, 2102) // not pixel-aligned to the mask
	for _, cond := range []Condition{Nominal, {Defocus: 60, Dose: 1.05}, {Defocus: -90, Dose: 0.93}, {Defocus: 0, Dose: 1.1}} {
		img, err := Simulate(ctx, mask, window, tt.Optics, cond)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collectPrinted(ctx, mask, window, tt.Optics, cond)
		if err != nil {
			t.Fatal(err)
		}
		want := img.PrintedBitmap()
		if want.Count() == 0 || want.Count() == want.W*want.H {
			t.Fatalf("%+v: degenerate reference bitmap (%d of %d set)", cond, want.Count(), want.W*want.H)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: scan-path printed bitmap differs from Simulate+PrintedBitmap (%d vs %d set)", cond, got.Count(), want.Count())
		}
	}
}

// A scan at dose 0 — ScanOpts' zero value — or below prints nothing and
// would call a necked wire clean; it is an error instead, from the
// window and the layer entry points alike.
func TestScanRejectsNonPositiveDose(t *testing.T) {
	tt := tech.N45()
	ctx := context.Background()
	win := geom.R(0, 0, 2000, 2000)
	for _, o := range []ScanOpts{{}, {Cond: Condition{Dose: -1}}, {Cond: Condition{Defocus: 60, Dose: -0.5}, Interior: true}} {
		if hs, err := ScanWindowCtx(ctx, neckV(0, 0), win, tt, tech.Metal1, o); err == nil {
			t.Errorf("ScanWindowCtx at %+v = %v, nil; want an error", o.Cond, hs)
		}
		if hs, err := ScanLayer(ctx, neckV(0, 0), tt, tech.Metal1, o); err == nil {
			t.Errorf("ScanLayer at %+v = %v, nil; want an error", o.Cond, hs)
		}
	}
	if hs, err := ScanWindowCtx(ctx, neckV(0, 0), win, tt, tech.Metal1, ScanOpts{Cond: Nominal}); err != nil || len(hs) == 0 {
		t.Fatalf("nominal scan of the neck = %v, %v; want its markers", hs, err)
	}
}
