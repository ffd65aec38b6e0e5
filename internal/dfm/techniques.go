package dfm

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/drc"
	"repro/internal/dvia"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/opc"
	"repro/internal/pattern"
	"repro/internal/sta"
	"repro/internal/tech"
	yieldpkg "repro/internal/yield"
)

// Technique evaluators: each applies one DFM technology to a synthetic
// workload and returns before/after metrics. These are the experiment
// engines behind the T/F experiments in experiments_test.go.
//
// Every evaluator takes a context and honors cancellation at the
// checkpoints of its heavy inner loops (litho simulation, OPC
// iteration, layer scans), returning a partial Outcome whose Err is
// the context error. Workload-generation failures are wrapped with
// harness.Workload so the runner can retry them on a perturbed seed.

// FullChipVias is the via count the per-block redundancy statistics
// are extrapolated to — the scale at which the panel's yield argument
// plays out.
const FullChipVias = 1e8

// track stamps the outcome's runtime when the evaluator returns,
// including early error returns, and feeds it to the per-technique
// wall-clock histogram.
func track(o *Outcome) func() {
	start := time.Now()
	return func() {
		o.Runtime = time.Since(start)
		obs.ObserveNS("dfm."+o.Technique+".total.ns", o.Runtime)
	}
}

// EvalRedundantVia measures the via-yield movement of double-via
// insertion on a routed block, extrapolated to full-chip via counts.
func EvalRedundantVia(ctx context.Context, t *tech.Tech, opts layout.BlockOpts) (o Outcome) {
	o = Outcome{Technique: "redundant-via"}
	defer track(&o)()
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}
	sp := stage("redundant-via", "workload")
	l, err := layout.GenerateBlock(t, opts)
	if err != nil {
		o.Err = harness.Workload(err)
		return o
	}
	flat := l.Flatten()
	sp.End()
	sp = stage("redundant-via", "insert")
	g, err := dvia.EvaluateInsertion(ctx, flat, t)
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}

	nb := g.SinglesBefore + 2*g.PairsBefore
	na := g.SinglesAfter + 2*g.PairsAfter
	fracSingleBefore := 1.0
	if nb > 0 {
		fracSingleBefore = float64(g.SinglesBefore) / float64(nb)
	}
	fracSingleAfter := 1.0
	if na > 0 {
		fracSingleAfter = float64(g.SinglesAfter) / float64(na)
	}
	// Full-chip extrapolation uses a production-grade per-via failure
	// rate; the node's ViaFailProb is inflated for block-scale
	// visibility.
	const pChip = 1e-9
	chipYield := func(fracSingle float64) float64 {
		singles := fracSingle * FullChipVias
		pairs := (1 - fracSingle) / 2 * FullChipVias
		return yieldpkg.ViaYield(int(singles), int(pairs), pChip)
	}

	o.Metrics = []Metric{
		{Name: "full-chip via yield", Before: chipYield(fracSingleBefore),
			After: chipYield(fracSingleAfter), Unit: "frac", HigherIsBetter: true, Primary: true},
		{Name: "block via yield", Before: g.Before, After: g.After, Unit: "frac", HigherIsBetter: true},
		{Name: "single-via fraction", Before: fracSingleBefore, After: fracSingleAfter,
			Unit: "frac", HigherIsBetter: false},
	}
	o.CostFrac = 0 // cuts only; no area, no timing
	o.CostNote = fmt.Sprintf("%d extra cuts, %d landing bars", g.AddedCuts, len(g.Report.AddedShapes)-g.AddedCuts)
	o.judge()
	return o
}

// EvalDummyFill measures density uniformity and CMP planarity gains of
// metal fill against its added-metal cost.
func EvalDummyFill(ctx context.Context, t *tech.Tech, opts layout.BlockOpts) (o Outcome) {
	o = Outcome{Technique: "dummy-fill"}
	defer track(&o)()
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}
	sp := stage("dummy-fill", "workload")
	l, err := layout.GenerateBlock(t, opts)
	if err != nil {
		o.Err = harness.Workload(err)
		return o
	}
	flat := l.Flatten()
	sp.End()
	// Die-level view: the placed block sits inside a die with empty
	// margin — the density cliff CMP fill exists to flatten.
	m1 := layout.ByLayer(flat)[tech.Metal1]
	extent := geom.BBoxOf(m1).Bloat(6000)
	const window, step = 3000, 1500

	sp = stage("dummy-fill", "analyze")
	before := fill.Analyze(m1, extent, window, step)
	sp.End()
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}
	sp = stage("dummy-fill", "synthesize")
	tiles := fill.Synthesize(m1, extent, window, step)
	sp.End()
	sp = stage("dummy-fill", "analyze")
	after := fill.Analyze(append(append([]geom.Rect{}, m1...), tiles...), extent, window, step)
	sp.End()
	cmp := fill.DefaultCMP()

	bs, as := before.Summarize(), after.Summarize()
	o.Metrics = []Metric{
		{Name: "density sigma", Before: bs.Sigma, After: as.Sigma, Unit: "frac", HigherIsBetter: false, Primary: true},
		{Name: "density min", Before: bs.Min, After: as.Min, Unit: "frac", HigherIsBetter: true},
		{Name: "CMP thickness range", Before: cmp.ThicknessRange(before), After: cmp.ThicknessRange(after), Unit: "nm", HigherIsBetter: false},
		{Name: "max density gradient", Before: bs.MaxGradient, After: as.MaxGradient, Unit: "frac", HigherIsBetter: false},
	}
	tileArea := int64(0)
	for _, tl := range tiles {
		tileArea += tl.Area()
	}
	if a := extent.Area(); a > 0 {
		o.CostFrac = float64(tileArea) / float64(a)
	}
	o.CostNote = fmt.Sprintf("%d dummy tiles (dead metal; electrically cheap, so the cost cap is loose)", len(tiles))
	o.judge()
	return o
}

// EvalOPCAccuracy compares EPE statistics of uncorrected, rule-based,
// and model-based OPC masks on a mixed dense/iso/line-end workload.
func EvalOPCAccuracy(ctx context.Context, t *tech.Tech) (o Outcome) {
	o = Outcome{Technique: "model-opc"}
	defer track(&o)()
	var drawn []geom.Rect
	for i := int64(0); i < 4; i++ {
		drawn = append(drawn, geom.R(i*140, 0, i*140+70, 1200))
	}
	drawn = append(drawn, geom.R(1200, 0, 1270, 1200)) // isolated line
	drawn = append(drawn, geom.R(1500, 0, 1570, 500))  // line end pair
	drawn = append(drawn, geom.R(1500, 650, 1570, 1200))
	drawn = geom.Normalize(drawn)
	window := geom.BBoxOf(drawn).Bloat(400)

	epe := func(img *litho.Image) float64 {
		return litho.SummarizeEPE(img.MeasureEPE(drawn, 150)).RMS
	}
	// The drawn and the rule-OPC mask share one handle: nothing of the
	// first image outlives its EPE, so the second renders over its grid.
	rm := litho.NewRasterMask(nil, window, t.Optics, 0)
	rms := func(mask []geom.Rect) (float64, error) {
		rm.Remask(mask)
		img, err := rm.Image(ctx, litho.Nominal)
		if err != nil {
			return 0, err
		}
		return epe(img), nil
	}
	sp := stage("model-opc", "baseline")
	none, err := rms(drawn)
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}
	sp = stage("model-opc", "rule-opc")
	rule, err := rms(opc.RuleBased(drawn))
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}
	sp = stage("model-opc", "model-opc")
	// The loop's last image is its corrected mask at nominal over this
	// window: the image rms would render.
	mres, err := opc.ModelBased(ctx, drawn, window, t.Optics, opc.DefaultModelOpts())
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}
	model := epe(mres.Image)

	// Inverse OPC is compared on the isolated structure it is scoped
	// for (see the ilt-vs-model experiment); the pixel solver's hinge
	// bands overlap on sub-2*Band dense pitches, where edge-based OPC
	// remains the production answer.
	o.Metrics = []Metric{
		{Name: "RMS EPE (model OPC)", Before: none, After: model, Unit: "nm", HigherIsBetter: false, Primary: true},
		{Name: "RMS EPE (rule OPC)", Before: none, After: rule, Unit: "nm", HigherIsBetter: false},
	}
	o.CostFrac = 0
	o.CostNote = "mask data volume and OPC compute"
	o.judge()
	return o
}

// EvalSRAF measures process-window extension from assist features on
// an isolated line.
func EvalSRAF(ctx context.Context, t *tech.Tech) (o Outcome) {
	o = Outcome{Technique: "sraf"}
	defer track(&o)()
	drawn := []geom.Rect{geom.R(0, 0, 70, 3000)}
	window := geom.R(-450, 1200, 550, 1800)
	defocus := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	dose := []float64{0.92, 0.96, 1.0, 1.04, 1.08}

	// One RasterMask serves both masks: per mask, the nominal image,
	// the defocus-80 image for the through-focus CD check, and the
	// whole FE matrix, which renders its other defoci over one grid.
	// Nothing of the bare mask's images outlives its numbers, so the
	// assisted mask renders over the bare one's grids.
	rm := litho.NewRasterMask(nil, window, t.Optics, defocus[len(defocus)-1])
	measure := func(mask []geom.Rect) (dof float64, cdDelta float64, err error) {
		rm.Remask(mask)
		img, err := rm.Image(ctx, litho.Nominal)
		if err != nil {
			return 0, 0, err
		}
		cd0, ok := img.CDAt(35, 1500, true)
		if !ok {
			return 0, math.Inf(1), nil
		}
		// Asked for before the matrix, so the matrix finds it cached.
		imgF, err := rm.Image(ctx, litho.Condition{Defocus: 80, Dose: 1})
		if err != nil {
			return 0, 0, err
		}
		spec := litho.CDSpec{Target: cd0, Tol: 0.10}
		pts, err := rm.FEMatrix(ctx, 35, 1500, true, spec, defocus, dose)
		if err != nil {
			return 0, 0, err
		}
		dof = litho.DepthOfFocus(pts, defocus)
		cdF, okF := imgF.CDAt(35, 1500, true)
		if !okF {
			return dof, cd0, nil // feature lost entirely: count the full CD
		}
		return dof, math.Abs(cd0 - cdF), nil
	}
	bare := geom.Normalize(drawn)
	sp := stage("sraf", "bare")
	dofB, dB, err := measure(bare)
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}
	sp = stage("sraf", "sraf")
	dofS, dS, err := measure(opc.WithSRAF(bare))
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}

	o.Metrics = []Metric{
		// The continuous through-focus CD stability leads; the
		// grid-quantized DOF follows.
		{Name: "CD shift @80nm defocus", Before: dB, After: dS, Unit: "nm", HigherIsBetter: false, Primary: true},
		{Name: "depth of focus", Before: dofB, After: dofS, Unit: "nm", HigherIsBetter: true},
	}
	o.CostFrac = 0
	o.CostNote = "mask complexity (assist shapes), MRC burden"
	o.judge()
	return o
}

// drcPlusBlock generates the drc-plus workload block of one seed and
// returns its normalized metal1 and the litho hotspots it shows at the
// stress condition.
func drcPlusBlock(ctx context.Context, t *tech.Tech, seed int64) ([]geom.Rect, []litho.Hotspot, error) {
	l, err := layout.GenerateBlock(t, layout.BlockOpts{
		Rows: 2, RowWidth: 6000, Nets: 8, MaxFan: 3, Seed: seed,
	})
	if err != nil {
		return nil, nil, harness.Workload(err)
	}
	m1 := geom.Normalize(layout.ByLayer(l.Flatten())[tech.Metal1])
	hs, err := litho.ScanLayer(ctx, m1, t, tech.Metal1, litho.ScanOpts{Cond: StressCond})
	if err != nil {
		return nil, nil, err
	}
	return m1, hs, nil
}

// drcPlusLibrary trains the drc-plus pattern library on the normalized
// metal1 of a block and its hotspots: one exact entry for the pattern
// at the geometry corner nearest each hotspot.
func drcPlusLibrary(m1 []geom.Rect, hs []litho.Hotspot) *pattern.Matcher {
	const radius = 200
	matcher := pattern.NewMatcher(radius)
	l := geom.BandedOf(m1)
	anchors := pattern.Anchors(m1)
	for i, h := range hs {
		a, ok := nearestAnchor(anchors, h.Box.Center(), 400)
		if !ok {
			continue
		}
		p := pattern.ExtractAt(l, a, radius)
		if p.Empty() {
			continue
		}
		matcher.AddEntry(&pattern.LibEntry{
			Name:  fmt.Sprintf("hs%d", i),
			P:     p,
			Exact: true,
		})
	}
	return matcher
}

// StressCond is the off-nominal condition used to provoke printability
// hotspots in the DRC Plus capture experiment.
var StressCond = litho.Condition{Defocus: 110, Dose: 0.95}

// EvalDRCPlus trains a pattern library from the litho hotspots of one
// design and measures hotspot capture on a second design, against the
// plain-DRC baseline.
func EvalDRCPlus(ctx context.Context, t *tech.Tech, trainSeed, testSeed int64) (o Outcome) {
	o = Outcome{Technique: "drc-plus"}
	defer track(&o)()

	sp := stage("drc-plus", "workload")
	trainM1, trainHS, err := drcPlusBlock(ctx, t, trainSeed)
	if err != nil {
		o.Err = err
		return o
	}
	testM1, testHS, err := drcPlusBlock(ctx, t, testSeed)
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}
	if len(testHS) == 0 {
		// A hotspot-free test design cannot measure capture; a fresh
		// seed usually produces one, so let the harness retry.
		o.Err = harness.Workloadf("no hotspots on test design at stress condition")
		return o
	}

	sp = stage("drc-plus", "train")
	matcher := drcPlusLibrary(trainM1, trainHS)
	sp.End()

	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}

	// Plain-DRC baseline capture on the test design. Rules fan out
	// over the cores under the evaluator's context, so a canceled
	// evaluation stops dispatching checks.
	sp = stage("drc-plus", "drc-baseline")
	deck := drc.StandardDeck(t)
	res := deck.RunCtx(ctx, drc.NewContext(t, shapesOf(testM1)), runtime.GOMAXPROCS(0))
	drcCaught := 0
	for _, h := range testHS {
		for _, v := range res.Violations {
			if v.Marker.Bloat(300).Overlaps(h.Box) {
				drcCaught++
				break
			}
		}
	}
	sp.End()

	// Pattern capture.
	sp = stage("drc-plus", "pattern-scan")
	matches := matcher.ScanLayer(testM1)
	patCaught := 0
	for _, h := range testHS {
		c := h.Box.Center()
		for _, m := range matches {
			if c.ChebyshevDist(m.At) <= 400 {
				patCaught++
				break
			}
		}
	}
	sp.End()

	n := float64(len(testHS))
	o.Metrics = []Metric{
		{Name: "hotspot capture rate", Before: float64(drcCaught) / n,
			After: float64(patCaught) / n, Unit: "frac", HigherIsBetter: true, Primary: true},
		{Name: "library size", Before: 0, After: float64(matcher.Len()), Unit: "patterns", HigherIsBetter: true},
		{Name: "test hotspots", Before: n, After: n, Unit: "sites"},
	}
	o.CostFrac = 0
	o.CostNote = fmt.Sprintf("%d pattern rules to maintain; %d matches to review", matcher.Len(), len(matches))
	o.judge()
	return o
}

func shapesOf(rs []geom.Rect) []layout.Shape {
	out := make([]layout.Shape, len(rs))
	for i, r := range rs {
		out[i] = layout.Shape{Layer: tech.Metal1, R: r, Net: layout.NoNet}
	}
	return out
}

func nearestAnchor(anchors []geom.Point, p geom.Point, maxDist int64) (geom.Point, bool) {
	best := geom.Point{}
	bestD := maxDist + 1
	for _, a := range anchors {
		if d := a.ChebyshevDist(p); d < bestD {
			best, bestD = a, d
		}
	}
	return best, bestD <= maxDist
}

// GateLengths holds the litho-extracted equivalent channel lengths per
// gate type.
type GateLengths struct {
	Delay map[circuit.GateType]float64
	Leak  map[circuit.GateType]float64
}

// ExtractGateLengths simulates each standard cell's poly layer
// (optionally after model OPC), intersects the printed contours with
// the drawn diffusion, slices the non-rectangular gates, and returns
// the delay- and leakage-equivalent lengths per gate type — the
// post-OPC extraction step of the litho-aware timing flow. On
// cancellation it returns the lengths extracted so far alongside the
// context error.
func ExtractGateLengths(ctx context.Context, t *tech.Tech, cond litho.Condition, useOPC bool) (GateLengths, error) {
	lib := layout.NewLib(t)
	nmos := device.NMOS45()
	gl := GateLengths{
		Delay: make(map[circuit.GateType]float64),
		Leak:  make(map[circuit.GateType]float64),
	}
	for _, gt := range []circuit.GateType{circuit.Inv, circuit.Nand2, circuit.Nor2, circuit.Buf} {
		cell, err := lib.Cell(gt.CellName())
		if err != nil {
			continue
		}
		poly := geom.Normalize(cell.LayerRects(tech.Poly))
		diff := geom.Normalize(cell.LayerRects(tech.Diff))
		window := cell.BBox().Bloat(300)
		mask := poly
		var img *litho.Image // at nominal, the OPC loop's last image is the one to read
		if useOPC {
			res, err := opc.ModelBased(ctx, poly, window, t.Optics, opc.DefaultModelOpts())
			if err != nil {
				return gl, err
			}
			mask = res.Mask
			if cond == litho.Nominal {
				img = res.Image
			}
		}
		if img == nil {
			var err error
			if img, err = litho.Simulate(ctx, mask, window, t.Optics, cond); err != nil {
				return gl, err
			}
		}
		printed := img.PrintedRects()
		gates := geom.Intersect(printed, diff)
		comps := drc.Components(gates)
		var wSum, dSum, kSum float64
		for _, comp := range comps {
			slices := device.ExtractSlices(comp, true, 5)
			w := device.TotalW(slices)
			if w <= 0 {
				continue
			}
			dSum += nmos.EquivalentL(slices, false) * w
			kSum += nmos.EquivalentL(slices, true) * w
			wSum += w
		}
		if wSum > 0 {
			gl.Delay[gt] = dSum / wSum
			gl.Leak[gt] = kSum / wSum
		} else {
			// Gates failed to print at this condition: dead silicon.
			gl.Delay[gt] = nmos.LNom * 3
			gl.Leak[gt] = nmos.LNom
		}
	}
	return gl, nil
}

// EvalLithoTiming quantifies the signoff error removed by litho-aware
// timing: STA with drawn lengths versus STA with post-OPC extracted
// lengths, on a random logic block.
func EvalLithoTiming(ctx context.Context, t *tech.Tech, netSeed int64) (o Outcome) {
	o = Outcome{Technique: "litho-aware-timing"}
	defer track(&o)()
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o
	}
	nl := circuit.RandomLogic(10, 14, 16, netSeed)
	lib := sta.DefaultLib()

	sp := stage("litho-aware-timing", "sta-drawn")
	drawn := sta.Analyze(nl, lib, sta.Lengths{}, 0)
	sp.End()
	period := drawn.Arrival[drawn.Critical[len(drawn.Critical)-1]]

	sp = stage("litho-aware-timing", "extract")
	gl, err := ExtractGateLengths(ctx, t, litho.Nominal, true)
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}
	lens := sta.TypeLengths(nl, gl.Delay, gl.Leak)
	sp = stage("litho-aware-timing", "sta-silicon")
	silicon := sta.Analyze(nl, lib, lens, period)
	sp.End()

	slackErr := math.Abs(silicon.WNS) / period
	rankDist := sta.RankDistance(sta.PathRank(nl, drawn), sta.PathRank(nl, silicon))
	leakErr := math.Abs(silicon.LeakTotal-drawn.LeakTotal) / drawn.LeakTotal

	o.Metrics = []Metric{
		{Name: "unmodeled slack error", Before: slackErr, After: 0, Unit: "frac of period", HigherIsBetter: false, Primary: true},
		{Name: "path rank churn", Before: rankDist, After: 0, Unit: "frac inversions", HigherIsBetter: false},
		{Name: "unmodeled leakage error", Before: leakErr, After: 0, Unit: "frac", HigherIsBetter: false},
	}
	o.CostFrac = 0
	o.CostNote = "litho simulation + extraction in the signoff loop"
	o.judge()
	return o
}

// EvalRestrictedRules compares the restricted node against baseline:
// printability robustness gained versus area paid.
func EvalRestrictedRules(ctx context.Context, t *tech.Tech) (o Outcome) {
	o = Outcome{Technique: "restricted-rules"}
	defer track(&o)()
	base := t
	restr := tech.N45R()

	// Area: the same library cells under both rule sets.
	areaOf := func(tt *tech.Tech) float64 {
		lib := layout.NewLib(tt)
		var a float64
		for _, n := range lib.Names {
			bb := lib.Cells[n].BBox()
			a += float64(bb.Width()) * float64(tt.CellHeight)
		}
		return a
	}
	sp := stage("restricted-rules", "area")
	aBase, aRestr := areaOf(base), areaOf(restr)
	sp.End()

	// Printability: PV band area fraction of metal1 line/space at each
	// node's minimum pitch — the dimension the restricted rules relax.
	bandFrac := func(tt *tech.Tech) (float64, error) {
		r := tt.Rules[tech.Metal1]
		cell := layout.LineSpace(tt, tech.Metal1, r.MinWidth, r.MinSpace, 3000, 7)
		m1 := geom.Normalize(cell.LayerRects(tech.Metal1))
		window := cell.BBox().BloatXY(200, -800) // interior band, away from line ends
		pv, err := litho.ComputePVBandCtx(ctx, m1, window, tt.Optics, litho.StandardCorners(120, 0.05))
		if err != nil {
			return 0, err
		}
		covered := geom.AreaOf(geom.Intersect(m1, []geom.Rect{window}))
		if covered > 0 {
			return float64(pv.BandArea()) / float64(covered), nil
		}
		return 0, nil
	}
	sp = stage("restricted-rules", "pvband")
	bBase, err := bandFrac(base)
	if err != nil {
		o.Err = err
		return o
	}
	bRestr, err := bandFrac(restr)
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}

	// Through-focus CD loss of the minimum line.
	cdLoss := func(tt *tech.Tech) (float64, error) {
		r := tt.Rules[tech.Metal1]
		cell := layout.LineSpace(tt, tech.Metal1, r.MinWidth, r.MinSpace, 3000, 7)
		m1 := cell.LayerRects(tech.Metal1)
		x := float64(3*r.Pitch + r.MinWidth/2) // center line
		win := geom.R(int64(x)-700, 1200, int64(x)+700, 1800)
		rm := litho.NewRasterMask(m1, win, tt.Optics, 120)
		img0, err := rm.Image(ctx, litho.Nominal)
		if err != nil {
			return 0, err
		}
		imgF, err := rm.Image(ctx, litho.Condition{Defocus: 120, Dose: 1})
		if err != nil {
			return 0, err
		}
		cd0, ok0 := img0.CDAt(x, 1500, true)
		cdF, okF := imgF.CDAt(x, 1500, true)
		if !ok0 {
			return math.Inf(1), nil
		}
		if !okF {
			return cd0, nil
		}
		return math.Abs(cd0 - cdF), nil
	}
	sp = stage("restricted-rules", "cdloss")
	cBase, err := cdLoss(base)
	if err != nil {
		o.Err = err
		return o
	}
	cRestr, err := cdLoss(restr)
	sp.End()
	if err != nil {
		o.Err = err
		return o
	}

	o.Metrics = []Metric{
		{Name: "M1 PV band fraction", Before: bBase, After: bRestr, Unit: "frac", HigherIsBetter: false, Primary: true},
		{Name: "M1 CD loss @120nm defocus", Before: cBase, After: cRestr, Unit: "nm", HigherIsBetter: false},
		{Name: "library cell area", Before: aBase, After: aRestr, Unit: "nm2", HigherIsBetter: false},
	}
	if aBase > 0 {
		o.CostFrac = (aRestr - aBase) / aBase
	}
	o.CostNote = "area growth under restricted pitches"
	o.judge()
	return o
}
