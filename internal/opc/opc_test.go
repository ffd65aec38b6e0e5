package opc

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

func opt() tech.Optics { return tech.N45().Optics }

// handle is an empty RasterMask over the window, for the loop to
// render through.
func handle(window geom.Rect, o tech.Optics, maxDefocus float64) *litho.RasterMask {
	return litho.NewRasterMask(nil, window, o, maxDefocus)
}

// modelBased runs ModelBased to completion on a handle of its own.
func modelBased(t testing.TB, drawn []geom.Rect, window geom.Rect, o tech.Optics, mo ModelOpts) Result {
	t.Helper()
	res, err := ModelBased(context.Background(), drawn, window, handle(window, o, 0), mo)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simulate runs litho.Simulate to completion.
func simulate(t testing.TB, mask []geom.Rect, window geom.Rect, o tech.Optics, cond litho.Condition) *litho.Image {
	t.Helper()
	img, err := litho.Simulate(context.Background(), mask, window, o, cond)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestFragmentEdgesCoversBoundary(t *testing.T) {
	drawn := []geom.Rect{geom.R(0, 0, 70, 1000)}
	frags := FragmentEdges(drawn, 120, 40)
	if len(frags) == 0 {
		t.Fatal("no fragments")
	}
	// Total fragment length per edge orientation = perimeter.
	var total int64
	for _, f := range frags {
		total += f.Edge.Length()
		if f.Edge.Length() <= 0 {
			t.Fatalf("degenerate fragment %+v", f)
		}
	}
	if total != geom.PerimeterOf(drawn) {
		t.Fatalf("fragment total %d != perimeter %d", total, geom.PerimeterOf(drawn))
	}
	// Long edges carry corner fragments of the corner length.
	sawCorner := false
	for _, f := range frags {
		if !f.Edge.Horizontal() && f.Edge.Length() == 40 {
			sawCorner = true
		}
	}
	if !sawCorner {
		t.Fatalf("no corner fragments on 1000nm edges")
	}
}

func TestFragmentShortEdgeSingle(t *testing.T) {
	drawn := []geom.Rect{geom.R(0, 0, 70, 70)}
	frags := FragmentEdges(drawn, 120, 40)
	if len(frags) != 4 {
		t.Fatalf("short square should have 4 fragments, got %d", len(frags))
	}
}

func TestApplyBiasMovesEdges(t *testing.T) {
	drawn := []geom.Rect{geom.R(0, 0, 100, 100)}
	frags := FragmentEdges(drawn, 200, 0)
	// Push every fragment outward by 10.
	for _, f := range frags {
		f.Bias = 10
	}
	mask := ApplyBias(drawn, frags)
	// Mask must contain the 120x120 cross extents.
	if !geom.CoversPoint(mask, geom.Pt(-5, 50)) || !geom.CoversPoint(mask, geom.Pt(50, 109)) {
		t.Fatalf("outward bias missing: %v", mask)
	}
	// Pull inward by 10.
	for _, f := range frags {
		f.Bias = -10
	}
	mask = ApplyBias(drawn, frags)
	if geom.CoversPoint(mask, geom.Pt(5, 50)) || geom.CoversPoint(mask, geom.Pt(50, 95)) {
		t.Fatalf("inward bias not applied: %v", mask)
	}
	if !geom.CoversPoint(mask, geom.Pt(50, 50)) {
		t.Fatalf("core lost under inward bias")
	}
}

func TestModelBasedReducesEPE(t *testing.T) {
	// An isolated line plus a line end: the canonical OPC workload.
	drawn := []geom.Rect{geom.R(0, 0, 70, 1500)}
	window := geom.R(-400, -200, 500, 1900)
	mo := DefaultModelOpts()
	res := modelBased(t, drawn, window, opt(), mo)
	if len(res.RMSHistory) != mo.Iterations+1 {
		t.Fatalf("history length = %d", len(res.RMSHistory))
	}
	before, after := res.RMSHistory[0], res.RMSHistory[len(res.RMSHistory)-1]
	if after >= before {
		t.Fatalf("model OPC did not improve RMS EPE: %.2f -> %.2f", before, after)
	}
	if after > before*0.5 {
		t.Fatalf("model OPC improvement too weak: %.2f -> %.2f", before, after)
	}
	// Bias must respect the MRC clamp.
	for _, f := range res.Fragments {
		if f.Bias > modelMaxBias || f.Bias < -modelMaxBias {
			t.Fatalf("fragment bias %d exceeds clamp", f.Bias)
		}
	}
}

func TestModelBeatsRuleBeatsNothing(t *testing.T) {
	// The T3 ordering on a mixed workload: dense lines + an isolated
	// line + line ends.
	var drawn []geom.Rect
	for i := int64(0); i < 4; i++ {
		drawn = append(drawn, geom.R(i*140, 0, i*140+70, 1200))
	}
	drawn = append(drawn, geom.R(1200, 0, 1270, 1200)) // isolated
	window := geom.R(-400, -300, 1700, 1500)
	o := opt()

	rms := func(mask []geom.Rect) float64 {
		return litho.SummarizeEPE(simulate(t, mask, window, o, litho.Nominal).MeasureEPE(drawn, 150)).RMS
	}

	none := rms(geom.Normalize(drawn))
	rule := rms(RuleBased(drawn))
	model := rms(modelBased(t, drawn, window, o, DefaultModelOpts()).Mask)

	if !(model < rule && rule < none) {
		t.Fatalf("expected model < rule < none, got model=%.2f rule=%.2f none=%.2f",
			model, rule, none)
	}
}

func TestRuleBasedAppliesTable(t *testing.T) {
	drawn := []geom.Rect{geom.R(0, 0, 70, 1000)}
	mask := RuleBased(drawn)
	// All-iso edges biased by 8: mask is 86 wide somewhere in the body.
	if !geom.CoversPoint(mask, geom.Pt(-8, 500)) || !geom.CoversPoint(mask, geom.Pt(77, 500)) {
		t.Fatalf("iso bias not applied")
	}
	// Line ends extended by 30.
	if !geom.CoversPoint(mask, geom.Pt(35, 1025)) {
		t.Fatalf("line-end extension missing")
	}
	// Dense pair gets the smaller bias on facing edges.
	pair := []geom.Rect{geom.R(0, 0, 70, 1000), geom.R(140, 0, 210, 1000)}
	m2 := RuleBased(pair)
	// Facing edges biased +4: gap shrinks from 70 to 62.
	if !geom.CoversPoint(m2, geom.Pt(73, 500)) {
		t.Fatalf("dense bias not applied")
	}
	if geom.CoversPoint(m2, geom.Pt(100, 500)) {
		t.Fatalf("gap center should stay open")
	}
}

func TestInsertSRAFPlacesAndSkips(t *testing.T) {
	// Isolated line: assists on both sides.
	iso := []geom.Rect{geom.R(0, 0, 70, 1000)}
	bars := InsertSRAF(iso)
	if len(bars) < 2 {
		t.Fatalf("isolated line should get side assists, got %v", bars)
	}
	leftOK, rightOK := false, false
	for _, b := range bars {
		if b.X1 == -srafDistance && b.X0 == -srafDistance-srafWidth {
			leftOK = true
		}
		if b.X0 == 70+srafDistance && b.X1 == 70+srafDistance+srafWidth {
			rightOK = true
		}
	}
	if !leftOK || !rightOK {
		t.Fatalf("assists misplaced: %v", bars)
	}
	// Dense pair: the facing gap (70) has no room; no assist inside it.
	dense := []geom.Rect{geom.R(0, 0, 70, 1000), geom.R(140, 0, 210, 1000)}
	for _, b := range InsertSRAF(dense) {
		if b.X0 >= 70 && b.X1 <= 140 {
			t.Fatalf("assist inserted into a sub-minimum gap: %v", b)
		}
	}
	// A mask that holds its assists gets no more: the bars' own edges
	// are no wider than a bar, and the drawn edges have no room left.
	for _, drawn := range [][]geom.Rect{iso, dense} {
		once := WithSRAF(drawn)
		if twice := WithSRAF(once); !slices.Equal(twice, once) {
			t.Fatalf("a second assist pass over %v grows the mask from %d to %d rects: %v", drawn, len(once), len(twice), twice)
		}
	}
}

func TestSRAFDoesNotPrint(t *testing.T) {
	drawn := []geom.Rect{geom.R(0, 0, 70, 2000)}
	mask := WithSRAF(drawn)
	window := geom.R(-500, 500, 600, 1500)
	img := simulate(t, mask, window, opt(), litho.Nominal)
	// Sample the assist bar centers: below threshold.
	if img.PrintsAt(float64(-srafDistance)-float64(srafWidth)/2, 1000) {
		t.Fatalf("left assist prints")
	}
	if img.PrintsAt(float64(70+srafDistance)+float64(srafWidth)/2, 1000) {
		t.Fatalf("right assist prints")
	}
	// The main feature still prints.
	if !img.PrintsAt(35, 1000) {
		t.Fatalf("main feature lost")
	}
}

func TestSRAFStabilizesCDThroughFocus(t *testing.T) {
	// Experiment F1's core claim: with assists, the isolated line's CD
	// moves less through focus (and the discretized DOF is at least as
	// wide).
	drawn := []geom.Rect{geom.R(0, 0, 70, 3000)}
	window := geom.R(-450, 1200, 550, 1800)
	o := opt()

	cdAt := func(mask []geom.Rect, f float64) (float64, bool) {
		return simulate(t, mask, window, o, litho.Condition{Defocus: f, Dose: 1}).CDAt(35, 1500, true)
	}

	bare := geom.Normalize(drawn)
	sraf := WithSRAF(bare)

	// 80nm is just inside the bare line's survival range under this
	// optics model; the assisted line must do strictly better there.
	const testFocus = 80
	cdBare0, ok1 := cdAt(bare, 0)
	cdSraf0, ok2 := cdAt(sraf, 0)
	if !ok1 || !ok2 {
		t.Fatalf("nominal print failed: bare=%v sraf=%v", ok1, ok2)
	}
	cdBareF, bareSurvives := cdAt(bare, testFocus)
	cdSrafF, srafSurvives := cdAt(sraf, testFocus)
	if !srafSurvives {
		t.Fatalf("assisted line lost at defocus %v", testFocus)
	}
	if bareSurvives {
		dBare := math.Abs(cdBare0 - cdBareF)
		dSraf := math.Abs(cdSraf0 - cdSrafF)
		if dSraf >= dBare {
			t.Fatalf("SRAF did not stabilize CD through focus: bare delta=%.2f sraf delta=%.2f", dBare, dSraf)
		}
	}
	// else: the bare line pinched away entirely while the assisted one
	// survived — the strongest possible SRAF win.

	// Discretized DOF must not get worse.
	defocus := []float64{0, 40, 80, 120, 160, 200, 240}
	dose := []float64{0.92, 0.96, 1.0, 1.04, 1.08}
	spec := litho.CDSpec{Target: cdBare0, Tol: 0.10}
	dof := func(mask []geom.Rect, spec litho.CDSpec) float64 {
		pts, err := litho.NewRasterMask(mask, window, o, 240).FEMatrix(context.Background(), 35, 1500, true, spec, defocus, dose)
		if err != nil {
			t.Fatal(err)
		}
		return litho.DepthOfFocus(pts, defocus)
	}
	dofBare := dof(bare, spec)
	dofS := dof(sraf, litho.CDSpec{Target: cdSraf0, Tol: 0.10})
	if dofS < dofBare {
		t.Fatalf("SRAF shrank DOF: bare=%.0f sraf=%.0f", dofBare, dofS)
	}
}

func TestMRCViolations(t *testing.T) {
	m := MRC{MinFeature: 40, MinSpace: 40}
	// A 30-wide sliver and a 30 gap.
	mask := []geom.Rect{
		geom.R(0, 0, 30, 500),    // thin feature
		geom.R(200, 0, 400, 500), // fine
		geom.R(430, 0, 600, 500), // 30 gap to previous
	}
	vs := m.MRCViolations(mask)
	if len(vs) == 0 {
		t.Fatal("MRC missed violations")
	}
	cover := func(p geom.Point) bool { return geom.CoversPoint(vs, p) }
	if !cover(geom.Pt(15, 250)) {
		t.Fatalf("thin feature not flagged: %v", vs)
	}
	if !cover(geom.Pt(415, 250)) {
		t.Fatalf("tight gap not flagged: %v", vs)
	}
	// A clean mask has none.
	if got := m.MRCViolations([]geom.Rect{geom.R(0, 0, 500, 500)}); len(got) != 0 {
		t.Fatalf("clean mask flagged: %v", got)
	}
}

func TestExtrudeDirections(t *testing.T) {
	cases := []struct {
		e    geom.Edge
		d    int64
		want geom.Rect
	}{
		{geom.Edge{P0: geom.Pt(0, 10), P1: geom.Pt(10, 10), Interior: geom.Below}, 5, geom.R(0, 10, 10, 15)},
		{geom.Edge{P0: geom.Pt(0, 10), P1: geom.Pt(10, 10), Interior: geom.Below}, -5, geom.R(0, 5, 10, 10)},
		{geom.Edge{P0: geom.Pt(0, 10), P1: geom.Pt(10, 10), Interior: geom.Above}, 5, geom.R(0, 5, 10, 10)},
		{geom.Edge{P0: geom.Pt(10, 0), P1: geom.Pt(10, 10), Interior: geom.Left}, 5, geom.R(10, 0, 15, 10)},
		{geom.Edge{P0: geom.Pt(10, 0), P1: geom.Pt(10, 10), Interior: geom.Right}, 5, geom.R(5, 0, 10, 10)},
		{geom.Edge{P0: geom.Pt(10, 0), P1: geom.Pt(10, 10), Interior: geom.Right}, -5, geom.R(10, 0, 15, 10)},
	}
	for i, c := range cases {
		if got := extrude(c.e, c.d); got != c.want {
			t.Errorf("case %d: extrude = %v, want %v", i, got, c.want)
		}
	}
}

// probeFinds answers "is anything within dist outside e" over layer both
// ways the package asks it: RuleBased and InsertSRAF by a positive
// clipped area, capOutward by a touch-inclusive walk filtered to rects
// that overlap the probe. It fails t if the two disagree.
func probeFinds(t *testing.T, layer []geom.Rect, e geom.Edge, dist int64) bool {
	t.Helper()
	b := geom.BandedOf(layer)
	probe := outwardProbe(e, dist)
	area := b.ClipArea(probe) > 0
	overlap := false
	b.Near(probe, func(_ int, r geom.Rect) { overlap = overlap || r.Overlaps(probe) })
	if area != overlap {
		t.Fatalf("probe %v of %v over %v: clipped area says %v, overlap %v", probe, e, layer, area, overlap)
	}
	return area
}

// The probe of an edge dist deep finds geometry that overlaps it by
// 1 nm or more, not geometry that only abuts its far side or its ends,
// and never the feature the edge bounds, also where that feature turns
// the corner past one of the probe's ends.
func TestOutwardProbe(t *testing.T) {
	feature := geom.R(0, 0, 100, 100)
	right := geom.Edge{P0: geom.Pt(100, 0), P1: geom.Pt(100, 100), Interior: geom.Left}
	if got, want := outwardProbe(right, 50), geom.R(101, 0, 151, 100); got != want {
		t.Fatalf("outwardProbe = %v, want %v", got, want)
	}
	for _, c := range []struct {
		name string
		nb   geom.Rect
		want bool
	}{
		{"abuts the far side", geom.R(151, 0, 200, 100), false},
		{"1 nm past the far side", geom.R(150, 0, 200, 100), true},
		{"abuts the top end", geom.R(101, 100, 151, 150), false},
		{"abuts the bottom end", geom.R(101, -50, 151, 0), false},
		{"1 nm over the top end", geom.R(120, 99, 130, 150), true},
		{"1 nm over the bottom end", geom.R(120, -50, 130, 1), true},
		{"meets a far corner", geom.R(151, 100, 200, 150), false},
		{"inside", geom.R(120, 20, 130, 30), true},
		{"1 nm off the edge", geom.R(101, 40, 102, 60), true},
	} {
		if got := probeFinds(t, geom.Normalize([]geom.Rect{feature, c.nb}), right, 50); got != c.want {
			t.Errorf("%s (%v): found %v, want %v", c.name, c.nb, got, c.want)
		}
	}
	// A rect alone and an L, every edge at every depth.
	for _, own := range [][]geom.Rect{{feature}, {feature, geom.R(0, 100, 300, 200)}} {
		layer := geom.Normalize(own)
		for _, e := range geom.BoundaryEdges(layer) {
			for _, d := range []int64{1, 50, 500} {
				if probeFinds(t, layer, e, d) {
					t.Errorf("probe %v of edge %v finds its own feature %v", outwardProbe(e, d), e, layer)
				}
			}
		}
	}
}

func TestModelConvergenceMonotoneEnough(t *testing.T) {
	// RMS should not explode across iterations (damped feedback).
	drawn := []geom.Rect{geom.R(0, 0, 70, 800), geom.R(140, 0, 210, 800)}
	window := geom.R(-400, -300, 600, 1100)
	res := modelBased(t, drawn, window, opt(), DefaultModelOpts())
	for i := 1; i < len(res.RMSHistory); i++ {
		if res.RMSHistory[i] > res.RMSHistory[0]*1.5 {
			t.Fatalf("iteration %d diverged: %v", i, res.RMSHistory)
		}
	}
	last := res.RMSHistory[len(res.RMSHistory)-1]
	if math.IsNaN(last) || last < 0 {
		t.Fatalf("bad RMS %v", last)
	}
}

// The loop renders every iteration over the grids of the one before,
// through one RasterMask it Remasks. The loops as they were written
// before that — ModelBased with a fresh image per iteration, and
// ProcessWindowOPC with a fresh RasterMask per iteration and one image
// per corner, nothing shared — must give the same RMS history (the
// weight-averaged RMS of the corners), the same mask and the same
// biases, bit for bit. litho's TestRemaskRendersOverPredecessorGrid
// holds the grid reuse itself.
func TestModelBasedGridReuseMatchesFreshImages(t *testing.T) {
	ctx := context.Background()
	drawn := []geom.Rect{geom.R(0, 0, 70, 1500), geom.R(160, 300, 230, 1200)}
	window := geom.R(-400, -200, 600, 1900)
	mo := DefaultModelOpts()
	for _, tc := range []struct {
		name    string
		corners []PWCorner
		run     func() (Result, error)
	}{
		{"nominal", []PWCorner{{Cond: litho.Nominal, Weight: 1}}, func() (Result, error) {
			return ModelBased(ctx, drawn, window, handle(window, opt(), 0), mo)
		}},
		{"pw", StandardPWCorners(80), func() (Result, error) {
			return ProcessWindowOPC(ctx, drawn, window, handle(window, opt(), 80), mo, StandardPWCorners(80))
		}},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}

		var wsum, maxF float64
		for _, c := range tc.corners {
			wsum += c.Weight
			maxF = max(maxF, math.Abs(c.Cond.Defocus))
		}
		frags := FragmentEdges(drawn, mo.MaxLen, modelCornerLen)
		capOutward(drawn, frags)
		var history []float64
		var mask []geom.Rect
		for it := 0; it <= mo.Iterations; it++ {
			mask = ApplyBias(drawn, frags)
			rm := litho.NewRasterMask(mask, window, opt(), maxF)
			imgs := make([]*litho.Image, len(tc.corners))
			for k, c := range tc.corners {
				if imgs[k], err = rm.Image(ctx, c.Cond); err != nil {
					t.Fatal(err)
				}
			}
			sq := make([]float64, len(tc.corners))
			for _, f := range frags {
				var weighted float64
				for k, c := range tc.corners {
					s := imgs[k].EPEAt(f.Edge, f.Site)
					sq[k] += s.EPE * s.EPE
					weighted += c.Weight * s.EPE
				}
				if it < mo.Iterations {
					f.Bias = max(min(f.Bias-int64(modelGain*weighted/wsum), f.MaxOut), -modelMaxBias)
				}
			}
			var rms float64
			for k, c := range tc.corners {
				rms += c.Weight * math.Sqrt(sq[k]/float64(len(frags)))
			}
			history = append(history, rms/wsum)
		}

		if len(history) != 6 || !reflect.DeepEqual(got.RMSHistory, history) {
			t.Errorf("%s: RMS history %v, from independent images %v", tc.name, got.RMSHistory, history)
		}
		if !reflect.DeepEqual(got.Mask, mask) {
			t.Errorf("%s: final mask differs from the independent-image loop", tc.name)
		}
		for i, f := range got.Fragments {
			if f.Bias != frags[i].Bias {
				t.Errorf("%s: fragment %d bias %d, independent-image loop %d", tc.name, i, f.Bias, frags[i].Bias)
			}
		}
	}

	// One handle moved across windows that grow and shrink: each loop
	// on it renders over the grids of the loops before, resliced to its
	// window where they are large enough, and gives the history, mask
	// and image a fresh handle gives, bit for bit.
	rm := handle(window, opt(), 0)
	for _, w := range []geom.Rect{window, window.Bloat(300), window.Bloat(-150), geom.R(-100, 100, 300, 900), window.Bloat(500), window} {
		part := geom.Intersect(drawn, []geom.Rect{w.Bloat(-100)})
		got, err := ModelBased(ctx, part, w, rm, mo)
		if err != nil {
			t.Fatal(err)
		}
		want := modelBased(t, part, w, opt(), mo)
		if !reflect.DeepEqual(got.RMSHistory, want.RMSHistory) || !reflect.DeepEqual(got.Mask, want.Mask) {
			t.Errorf("window %v: moved handle's history %v, fresh handle's %v", w, got.RMSHistory, want.RMSHistory)
		}
		if g, f := got.Image, want.Image; g.W != f.W || g.H != f.H || g.Origin != f.Origin || !slices.EqualFunc(g.Data, f.Data, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Errorf("window %v: moved handle's %dx%d image at %v differs from a fresh handle's %dx%d at %v", w, g.W, g.H, g.Origin, f.W, f.H, f.Origin)
		}
	}
}

// The image a completed loop hands back is the corrected mask at
// nominal, rendered over the grid of five iterations before it: every
// pixel is a fresh Simulate's, bit for bit, and so are the grid's
// placement, threshold and condition. A canceled loop hands none back.
func TestModelBasedImageEqualsResimulation(t *testing.T) {
	ctx := context.Background()
	drawn := []geom.Rect{geom.R(0, 0, 70, 1500), geom.R(160, 300, 230, 1200), geom.R(300, 0, 370, 600)}
	window := geom.R(-400, -200, 700, 1900)
	res, err := ModelBased(ctx, drawn, window, handle(window, opt(), 0), DefaultModelOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := litho.Simulate(ctx, res.Mask, window, opt(), litho.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Image
	if got == nil {
		t.Fatal("a completed loop returned no image")
	}
	if got.W != want.W || got.H != want.H || got.Origin != want.Origin || got.Pitch != want.Pitch ||
		got.Threshold != want.Threshold || got.Cond != want.Cond {
		t.Fatalf("image %dx%d at %v pitch %g thr %g %+v, re-simulation %dx%d at %v pitch %g thr %g %+v",
			got.W, got.H, got.Origin, got.Pitch, got.Threshold, got.Cond,
			want.W, want.H, want.Origin, want.Pitch, want.Threshold, want.Cond)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("pixel (%d,%d) = %v in the loop's image, %v re-simulated", i%want.W, i/want.W, got.Data[i], v)
		}
	}

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if res, err := ModelBased(dead, drawn, window, handle(window, opt(), 0), DefaultModelOpts()); err == nil || res.Image != nil {
		t.Errorf("canceled loop returned (image %v, err %v), want no image and an error", res.Image != nil, err)
	}
}
