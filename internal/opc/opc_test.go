package opc

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

func opt() tech.Optics { return tech.N45().Optics }

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
	res := ModelBased(drawn, window, opt(), mo)
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
		img := litho.Simulate(mask, window, o, litho.Nominal)
		return litho.SummarizeEPE(img.MeasureEPE(drawn, 150)).RMS
	}

	none := rms(geom.Normalize(drawn))
	rule := rms(RuleBased(drawn))
	model := rms(ModelBased(drawn, window, o, DefaultModelOpts()).Mask)

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
}

func TestSRAFDoesNotPrint(t *testing.T) {
	drawn := []geom.Rect{geom.R(0, 0, 70, 2000)}
	mask := WithSRAF(drawn)
	window := geom.R(-500, 500, 600, 1500)
	img := litho.Simulate(mask, window, opt(), litho.Nominal)
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
		return litho.Simulate(mask, window, o, litho.Condition{Defocus: f, Dose: 1}).CDAt(35, 1500, true)
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
	dofBare := litho.DepthOfFocus(litho.FEMatrix(bare, window, o, 35, 1500, true, spec, defocus, dose), defocus)
	specS := litho.CDSpec{Target: cdSraf0, Tol: 0.10}
	dofS := litho.DepthOfFocus(litho.FEMatrix(sraf, window, o, 35, 1500, true, specS, defocus, dose), defocus)
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

func TestModelConvergenceMonotoneEnough(t *testing.T) {
	// RMS should not explode across iterations (damped feedback).
	drawn := []geom.Rect{geom.R(0, 0, 70, 800), geom.R(140, 0, 210, 800)}
	window := geom.R(-400, -300, 600, 1100)
	res := ModelBased(drawn, window, opt(), DefaultModelOpts())
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

// ModelBasedCtx renders every iteration over the image of the one
// before. The loop as it was written before that — a fresh SimulateCtx
// image per iteration, nothing shared — must give the same RMS history,
// the same mask and the same biases. The off-nominal case went with
// ModelOpts.Cond, which nothing set; litho's
// TestSimulateIntoReusesMatchingGrid holds the in-place dose scaling.
func TestModelBasedGridReuseMatchesFreshImages(t *testing.T) {
	ctx := context.Background()
	drawn := []geom.Rect{geom.R(0, 0, 70, 1500), geom.R(160, 300, 230, 1200)}
	window := geom.R(-400, -200, 600, 1900)
	cond := litho.Nominal
	mo := DefaultModelOpts()
	got, err := ModelBasedCtx(ctx, drawn, window, opt(), mo)
	if err != nil {
		t.Fatal(err)
	}

	frags := FragmentEdges(drawn, mo.MaxLen, modelCornerLen)
	capOutward(drawn, frags)
	var history []float64
	var mask []geom.Rect
	for it := 0; it <= mo.Iterations; it++ {
		mask = ApplyBias(drawn, frags)
		img, err := litho.SimulateCtx(ctx, mask, window, opt(), cond)
		if err != nil {
			t.Fatal(err)
		}
		var sq float64
		for _, f := range frags {
			s := img.EPEAt(f.Edge, f.Site)
			sq += s.EPE * s.EPE
			if it < mo.Iterations {
				f.Bias = max(min(f.Bias-int64(modelGain*s.EPE), f.MaxOut), -modelMaxBias)
			}
		}
		history = append(history, math.Sqrt(sq/float64(len(frags))))
	}

	if len(history) != 6 || !reflect.DeepEqual(got.RMSHistory, history) {
		t.Errorf("%+v: RMS history %v, from %d independent images %v", cond, got.RMSHistory, len(history), history)
	}
	if !reflect.DeepEqual(got.Mask, mask) {
		t.Errorf("%+v: final mask differs from the independent-image loop", cond)
	}
	for i, f := range got.Fragments {
		if f.Bias != frags[i].Bias {
			t.Errorf("%+v: fragment %d bias %d, independent-image loop %d", cond, i, f.Bias, frags[i].Bias)
		}
	}
}
