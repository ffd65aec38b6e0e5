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
	plain, err := ScanLayerOpts(ctx, neckV(0, 0), tt, tech.Metal1, ScanOpts{Cond: Nominal})
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
	interior, err := ScanLayerOpts(ctx, neckV(0, 0), tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(interior, wantPlain[1:3]) {
		t.Fatalf("interior scan = %v, want %v", interior, wantPlain[1:3])
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
	interior, err := ScanLayerOpts(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
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
	interior, err := ScanLayerOpts(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Hotspot{{Bridge, geom.R(60, 705, 1940, 745)}}
	if !reflect.DeepEqual(interior, want) {
		t.Fatalf("interior scan = %v, want %v", interior, want)
	}
}

func TestScanTranslationInvariant(t *testing.T) {
	// The same neck placed elsewhere yields the same markers, shifted.
	tt := tech.N45()
	ctx := context.Background()
	base, err := ScanLayerOpts(ctx, neckV(0, 0), tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := ScanLayerOpts(ctx, neckV(3000, 300), tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
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
	interior, err := ScanLayerOpts(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
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
	interior, err := ScanLayerOpts(context.Background(), mask, tt, tech.Metal1, ScanOpts{Cond: Nominal, Interior: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(interior) != 0 {
		t.Fatalf("degenerate mask produced hotspots: %v", interior)
	}
	// A layer of only degenerate slivers: empty grid, no error.
	only := []geom.Rect{geom.R(0, 0, 0, 1000)}
	hs, err := ScanLayerOpts(context.Background(), only, tt, tech.Metal1, ScanOpts{Cond: Nominal})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 0 {
		t.Fatalf("zero-width-only mask produced hotspots: %v", hs)
	}
}

func TestScanLayerCtxDelegates(t *testing.T) {
	// The legacy entry point must stay bit-identical to ScanLayerOpts
	// without Interior — the tiled engine depends on this equivalence.
	tt := tech.N45()
	ctx := context.Background()
	legacy, err := ScanLayerCtx(ctx, neckV(0, 0), tt, tech.Metal1, Nominal, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ScanLayerOpts(ctx, neckV(0, 0), tt, tech.Metal1, ScanOpts{Cond: Nominal})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, opts) {
		t.Fatalf("ScanLayerCtx %v != ScanLayerOpts %v", legacy, opts)
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
// they must be the bits SimulateCtx + PrintedBitmap produce through
// the float intensity grid, at any dose and defocus.
func TestSimulatePrintedMatchesPrintedBitmap(t *testing.T) {
	tt := tech.N45()
	ctx := context.Background()
	mask := append(neckV(0, 0), geom.R(160, 0, 250, 1600), geom.R(-400, 300, -40, 420))
	window := geom.R(-503, -498, 749, 2102) // not pixel-aligned to the mask
	for _, cond := range []Condition{Nominal, {Defocus: 60, Dose: 1.05}, {Defocus: -90, Dose: 0.93}, {Defocus: 0, Dose: 1.1}} {
		img, err := SimulateCtx(ctx, mask, window, tt.Optics, cond)
		if err != nil {
			t.Fatal(err)
		}
		got, err := simulatePrinted(ctx, mask, window, tt.Optics, cond)
		if err != nil {
			t.Fatal(err)
		}
		want := img.PrintedBitmap()
		if want.Count() == 0 || want.Count() == want.W*want.H {
			t.Fatalf("%+v: degenerate reference bitmap (%d of %d set)", cond, want.Count(), want.W*want.H)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: scan-path printed bitmap differs from SimulateCtx+PrintedBitmap (%d vs %d set)", cond, got.Count(), want.Count())
		}
	}
}
