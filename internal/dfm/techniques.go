package dfm

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/drc"
	"repro/internal/dvia"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/opc"
	"repro/internal/pattern"
	"repro/internal/sta"
	"repro/internal/tech"
	yieldpkg "repro/internal/yield"
)

// The parts the technique table (runall.go) is made of, and the
// engines behind the T/F experiments in experiments_test.go. A part
// with heavy inner loops (litho simulation, OPC iteration, layer scans)
// takes a context and returns its error at their checkpoints.

// FullChipVias is the via count the per-block redundancy statistics
// are extrapolated to — the scale at which the panel's yield argument
// plays out.
const FullChipVias = 1e8

// flatBlock generates a routed block and flattens it: the block of a
// workload, and drc-plus's two blocks. A failure is a harness.Workload
// error that names the seed.
func flatBlock(t *tech.Tech, opts layout.BlockOpts) ([]layout.Shape, error) {
	l, err := layout.GenerateBlock(t, opts)
	if err != nil {
		return nil, harness.Workloadf("seed %d: %w", opts.Seed, err)
	}
	return l.Flatten(), nil
}

// blockFixture is the workload's flat block, as redundant-via fixes it.
func blockFixture(_ *tech.Tech, w workload) ([]layout.Shape, error) { return w.block() }

// viaFix doubles every single via of a flat layout that has room for a
// second cut. The cuts cost no area and no timing.
func viaFix(ctx context.Context, t *tech.Tech, flat []layout.Shape) ([]layout.Shape, cost, error) {
	rep, err := dvia.Insert(ctx, flat, t)
	if err != nil {
		return nil, cost{}, err
	}
	return append(append([]layout.Shape{}, flat...), rep.AddedShapes...),
		cost{note: fmt.Sprintf("%d extra cuts, %d landing bars", rep.Inserted, len(rep.AddedShapes)-rep.Inserted)}, nil
}

// viaMeasure reads a flat layout's via redundancy: its single-via
// fraction extrapolated to a full chip, its own via yield, and the
// fraction itself.
func viaMeasure(_ context.Context, t *tech.Tech, flat []layout.Shape) ([]float64, error) {
	singles, pairs := yieldpkg.CountViaRedundancy(flat, t)
	fracSingle := 1.0
	if n := singles + 2*pairs; n > 0 {
		fracSingle = float64(singles) / float64(n)
	}
	// Full-chip extrapolation uses a production-grade per-via failure
	// rate; the node's ViaFailProb is inflated for block-scale
	// visibility.
	const pChip = 1e-9
	chip := yieldpkg.ViaYield(int(fracSingle*FullChipVias), int((1-fracSingle)/2*FullChipVias), pChip)
	return []float64{chip, yieldpkg.ViaYield(singles, pairs, t.Defects.ViaFailProb), fracSingle}, nil
}

// die is dummy-fill's layout: a block's metal1 inside a die with an
// empty margin — the density cliff CMP fill exists to flatten — and
// the analysis grid over the die.
type die struct {
	m1     []geom.Rect
	extent geom.Rect
}

const fillWindow, fillStep = 3000, 1500

func dieFixture(_ *tech.Tech, w workload) (die, error) {
	flat, err := w.block()
	if err != nil {
		return die{}, err
	}
	m1 := layout.ByLayer(flat)[tech.Metal1]
	return die{m1, geom.BBoxOf(m1).Bloat(6000)}, nil
}

// fillFix adds dummy tiles to every window under the density target;
// their area is its cost.
func fillFix(_ context.Context, _ *tech.Tech, d die) (die, cost, error) {
	tiles := fill.Synthesize(d.m1, d.extent, fillWindow, fillStep)
	c := cost{note: fmt.Sprintf("%d dummy tiles (dead metal; electrically cheap, so the cost cap is loose)", len(tiles))}
	var area int64
	for _, tl := range tiles {
		area += tl.Area()
	}
	if a := d.extent.Area(); a > 0 {
		c.frac = float64(area) / float64(a)
	}
	return die{append(append([]geom.Rect{}, d.m1...), tiles...), d.extent}, c, nil
}

// fillMeasure reads the die's window densities: their spread and
// minimum, the CMP thickness range they leave, and their steepest step.
func fillMeasure(_ context.Context, _ *tech.Tech, d die) ([]float64, error) {
	dm := fill.Analyze(d.m1, d.extent, fillWindow, fillStep)
	s := dm.Summarize()
	return []float64{s.Sigma, s.Min, fill.ThicknessRange(dm), s.MaxGradient}, nil
}

// printed is the layout of the litho fixers: a pattern as drawn in a
// simulation window, and the masks printed for it — on a fixture, the
// drawn pattern itself. Both measures of an evaluation render through
// its one handle, so the second mask renders over the first one's
// grids: nothing of the first's images outlives its numbers.
type printed struct {
	drawn  []geom.Rect
	window geom.Rect
	rm     *litho.RasterMask
	masks  []mask
}

// mask is one printed mask, with its nominal image over the window
// where its fix already rendered it.
type mask struct {
	rects []geom.Rect
	img   *litho.Image
}

func newPrinted(t *tech.Tech, drawn []geom.Rect, window geom.Rect, maxDefocus float64) printed {
	return printed{drawn, window, litho.NewRasterMask(nil, window, t.Optics, maxDefocus), []mask{{rects: drawn}}}
}

// image is mask i's nominal image: the one its fix rendered, handed
// over once so that its grid goes with the caller's last use of it, or
// rendered now.
func (p printed) image(ctx context.Context, i int) (*litho.Image, error) {
	if img := p.masks[i].img; img != nil {
		p.masks[i].img = nil
		return img, nil
	}
	p.rm.Remask(p.masks[i].rects, p.window)
	return p.rm.Image(ctx, litho.Nominal)
}

// opcFixture is a mixed dense/iso/line-end pattern.
func opcFixture(t *tech.Tech, _ workload) (printed, error) {
	var drawn []geom.Rect
	for i := int64(0); i < 4; i++ {
		drawn = append(drawn, geom.R(i*140, 0, i*140+70, 1200))
	}
	drawn = append(drawn, geom.R(1200, 0, 1270, 1200)) // isolated line
	drawn = append(drawn, geom.R(1500, 0, 1570, 500))  // line end pair
	drawn = append(drawn, geom.R(1500, 650, 1570, 1200))
	drawn = geom.Normalize(drawn)
	return newPrinted(t, drawn, geom.BBoxOf(drawn).Bloat(400), 0), nil
}

// opcFix corrects the drawn pattern twice: model-based, then
// rule-based for reference. The model loop renders through the
// layout's handle, and its last image is its corrected mask at nominal
// over this window, so that mask is not rendered again and both
// measures render over the loop's grid. Inverse OPC is compared on the
// isolated structure it is scoped for (see the ilt-vs-model
// experiment); the pixel solver's hinge bands overlap on sub-2*Band
// dense pitches, where edge-based OPC remains the production answer.
func opcFix(ctx context.Context, t *tech.Tech, p printed) (printed, cost, error) {
	res, err := opc.ModelBased(ctx, p.drawn, p.window, p.rm, opc.DefaultModelOpts())
	if err != nil {
		return printed{}, cost{}, err
	}
	p.masks = []mask{{res.Mask, res.Image}, {rects: opc.RuleBased(p.drawn)}}
	return p, cost{note: "mask data volume and OPC compute"}, nil
}

// epeMeasure is the RMS edge placement error of each mask's nominal
// print against the drawn pattern.
func epeMeasure(ctx context.Context, _ *tech.Tech, p printed) ([]float64, error) {
	var out []float64
	for i := range p.masks {
		img, err := p.image(ctx, i)
		if err != nil {
			return nil, err
		}
		out = append(out, litho.SummarizeEPE(img.MeasureEPE(p.drawn, 150)).RMS)
	}
	return out, nil
}

// The SRAF process window: the FE matrix's defoci and doses.
var (
	srafDefocus = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	srafDose    = []float64{0.92, 0.96, 1.0, 1.04, 1.08}
)

// srafFixture is an isolated line, the feature assists are for.
func srafFixture(t *tech.Tech, _ workload) (printed, error) {
	return newPrinted(t, geom.Normalize([]geom.Rect{geom.R(0, 0, 70, 3000)}), geom.R(-450, 1200, 550, 1800),
		srafDefocus[len(srafDefocus)-1]), nil
}

// srafFix adds assist bars beside the mask's isolated edges.
func srafFix(_ context.Context, _ *tech.Tech, p printed) (printed, cost, error) {
	p.masks = []mask{{rects: opc.WithSRAF(p.masks[0].rects)}}
	return p, cost{note: "mask complexity (assist shapes), MRC burden"}, nil
}

// srafMeasure reads the mask's through-focus stability at the line's
// centre: the CD shift at 80 nm defocus (continuous, so it leads), then
// the grid-quantized depth of focus. It renders the nominal image, the
// defocus-80 image and the FE matrix, which renders its other defoci
// over one grid.
func srafMeasure(ctx context.Context, _ *tech.Tech, p printed) ([]float64, error) {
	img, err := p.image(ctx, 0)
	if err != nil {
		return nil, err
	}
	cd0, ok := img.CDAt(35, 1500, true)
	if !ok {
		return []float64{math.Inf(1), 0}, nil
	}
	// Asked for before the matrix, so the matrix finds it cached.
	imgF, err := p.rm.Image(ctx, litho.Condition{Defocus: 80, Dose: 1})
	if err != nil {
		return nil, err
	}
	pts, err := p.rm.FEMatrix(ctx, 35, 1500, true, litho.CDSpec{Target: cd0, Tol: 0.10}, srafDefocus, srafDose)
	if err != nil {
		return nil, err
	}
	shift := cd0 // feature lost entirely at defocus: count the full CD
	if cdF, ok := imgF.CDAt(35, 1500, true); ok {
		shift = math.Abs(cd0 - cdF)
	}
	return []float64{shift, litho.DepthOfFocus(pts, srafDefocus)}, nil
}

// restrictedRules is one measure over two fixtures, the node itself
// and its restricted-rules twin (tech.N45R): the rules are a setting of
// the generator, not a change to a layout. The area the restricted
// library grows by is the cost.
func restrictedRules(ctx context.Context, name string, t *tech.Tech, _ workload) (v values, err error) {
	sp := stage(name, "measure")
	defer sp.End()
	if v.before, err = rulesMeasure(ctx, t); err != nil {
		return v, err
	}
	if v.after, err = rulesMeasure(ctx, tech.N45R()); err != nil {
		return v, err
	}
	if a := v.before[2]; a > 0 {
		v.frac = (v.after[2] - a) / a
	}
	v.note = "area growth under restricted pitches"
	return v, nil
}

// rulesMeasure reads a node's metal1 printability at its minimum pitch
// — the dimension restricted rules relax — and its library's area: the
// PV band area fraction, the through-focus CD loss of the centre line,
// and the summed cell area.
func rulesMeasure(ctx context.Context, t *tech.Tech) ([]float64, error) {
	r := t.Rules[tech.Metal1]
	cell := layout.LineSpace(t, tech.Metal1, r.MinWidth, r.MinSpace, 3000, 7)
	m1 := cell.LayerRects(tech.Metal1)
	norm := geom.Normalize(m1)
	window := cell.BBox().BloatXY(200, -800) // interior band, away from line ends
	pv, err := litho.ComputePVBandCtx(ctx, norm, window, t.Optics, litho.StandardCorners(120, 0.05))
	if err != nil {
		return nil, err
	}
	var band float64
	if covered := geom.AreaOf(geom.Intersect(norm, []geom.Rect{window})); covered > 0 {
		band = float64(pv.BandArea()) / float64(covered)
	}

	loss, err := cdLoss(ctx, t, m1, float64(3*r.Pitch+r.MinWidth/2)) // centre line
	if err != nil {
		return nil, err
	}

	lib := layout.NewLib(t)
	var area float64
	for _, n := range lib.Names {
		area += float64(lib.Cells[n].BBox().Width()) * float64(t.CellHeight)
	}
	return []float64{band, loss, area}, nil
}

// cdLoss is the through-focus CD loss of the line at x: its CD at
// nominal less its CD at 120 nm defocus, infinite when it does not
// print at nominal and its whole nominal CD when it is lost at
// defocus. The nominal CD is read before the defocused image is asked
// for, so that image renders over the nominal one's grid.
func cdLoss(ctx context.Context, t *tech.Tech, m1 []geom.Rect, x float64) (float64, error) {
	window := geom.R(int64(x)-700, 1200, int64(x)+700, 1800)
	rm := litho.NewRasterMask(m1, window, t.Optics, 120)
	img, err := rm.Image(ctx, litho.Nominal)
	if err != nil {
		return 0, err
	}
	cd0, ok := img.CDAt(x, 1500, true)
	if !ok {
		return math.Inf(1), nil
	}
	rm.Remask(m1, window)
	if img, err = rm.Image(ctx, litho.Condition{Defocus: 120, Dose: 1}); err != nil {
		return 0, err
	}
	cdF, ok := img.CDAt(x, 1500, true)
	if !ok {
		return cd0, nil
	}
	return math.Abs(cd0 - cdF), nil
}

// drcPlusBlock generates the drc-plus workload block of one seed and
// returns its normalized metal1 and the litho hotspots it shows at the
// stress condition.
func drcPlusBlock(ctx context.Context, t *tech.Tech, seed int64) ([]geom.Rect, []litho.Hotspot, error) {
	flat, err := flatBlock(t, layout.BlockOpts{
		Rows: 2, RowWidth: 6000, Nets: 8, MaxFan: 3, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	m1 := geom.Normalize(layout.ByLayer(flat)[tech.Metal1])
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
		matcher.AddEntry(&pattern.LibEntry{Name: fmt.Sprintf("hs%d", i), P: p})
	}
	return matcher
}

// StressCond is the off-nominal condition used to provoke printability
// hotspots in the DRC Plus capture experiment.
var StressCond = litho.Condition{Defocus: 110, Dose: 0.95}

// drcPlus is a check: it trains a pattern library from the litho
// hotspots of the block at the seed and measures hotspot capture on
// the block at the next seed, against the plain-DRC baseline.
func drcPlus(ctx context.Context, name string, t *tech.Tech, w workload) (v values, err error) {
	trainSeed, testSeed := w.opts.Seed, w.opts.Seed+1
	sp := stage(name, "workload")
	trainM1, trainHS, err := drcPlusBlock(ctx, t, trainSeed)
	if err != nil {
		return v, err
	}
	testM1, testHS, err := drcPlusBlock(ctx, t, testSeed)
	sp.End()
	if err != nil {
		return v, err
	}
	if len(testHS) == 0 {
		// A hotspot-free test design cannot measure capture.
		return v, harness.Workloadf("drc-plus: test seed %d shows no hotspots at the stress condition", testSeed)
	}

	sp = stage(name, "train")
	matcher := drcPlusLibrary(trainM1, trainHS)
	sp.End()

	if err := ctx.Err(); err != nil {
		return v, err
	}

	// Plain-DRC baseline capture on the test design. Rules fan out
	// over the cores under the evaluator's context, so a canceled
	// evaluation stops dispatching checks.
	sp = stage(name, "drc-baseline")
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
	sp = stage(name, "pattern-scan")
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
	v.before = []float64{float64(drcCaught) / n, 0, n}
	v.after = []float64{float64(patCaught) / n, float64(matcher.Len()), n}
	v.note = fmt.Sprintf("%d pattern rules to maintain; %d matches to review", matcher.Len(), len(matches))
	return v, nil
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
// post-OPC extraction step of the litho-aware timing flow. The cells
// render through one handle, moved from cell to cell largest window
// first, so every cell after the first renders over the grid of the
// one before. On cancellation it returns the lengths extracted so far
// alongside the context error.
func ExtractGateLengths(ctx context.Context, t *tech.Tech, cond litho.Condition, useOPC bool) (GateLengths, error) {
	lib := layout.NewLib(t)
	nmos := device.NMOS45()
	gl := GateLengths{
		Delay: make(map[circuit.GateType]float64),
		Leak:  make(map[circuit.GateType]float64),
	}
	type gateCell struct {
		gt     circuit.GateType
		cell   *layout.Cell
		window geom.Rect
	}
	var cells []gateCell
	for _, gt := range []circuit.GateType{circuit.Inv, circuit.Nand2, circuit.Nor2, circuit.Buf} {
		if cell, err := lib.Cell(gt.CellName()); err == nil {
			cells = append(cells, gateCell{gt, cell, cell.BBox().Bloat(300)})
		}
	}
	slices.SortStableFunc(cells, func(a, b gateCell) int { return cmp.Compare(b.window.Area(), a.window.Area()) })
	rm := litho.NewRasterMask(nil, geom.Rect{}, t.Optics, cond.Defocus) // each cell moves it to its window
	for _, c := range cells {
		poly := geom.Normalize(c.cell.LayerRects(tech.Poly))
		diff := geom.Normalize(c.cell.LayerRects(tech.Diff))
		mask := poly
		var img *litho.Image // at nominal, the OPC loop's last image is the one to read
		if useOPC {
			res, err := opc.ModelBased(ctx, poly, c.window, rm, opc.DefaultModelOpts())
			if err != nil {
				return gl, err
			}
			mask = res.Mask
			if cond == litho.Nominal {
				img = res.Image
			}
		}
		if img == nil {
			rm.Remask(mask, c.window)
			var err error
			if img, err = rm.Image(ctx, cond); err != nil {
				return gl, err
			}
		}
		printed := img.PrintedRects()
		gates := geom.Intersect(printed, diff)
		comps := geom.BandedOf(gates).Components()
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
			gl.Delay[c.gt] = dSum / wSum
			gl.Leak[c.gt] = kSum / wSum
		} else {
			// Gates failed to print at this condition: dead silicon.
			gl.Delay[c.gt] = nmos.LNom * 3
			gl.Leak[c.gt] = nmos.LNom
		}
	}
	return gl, nil
}

// lithoTiming is an analysis: the signoff error that STA with drawn
// lengths makes, against STA with post-OPC extracted lengths, on the
// random logic block of the seed. After the analysis the error is 0.
func lithoTiming(ctx context.Context, name string, t *tech.Tech, w workload) (v values, err error) {
	nl := circuit.RandomLogic(10, 14, 16, w.opts.Seed)
	lib := sta.DefaultLib()

	sp := stage(name, "sta-drawn")
	drawn := sta.Analyze(nl, lib, sta.Lengths{}, 0)
	sp.End()
	period := drawn.Arrival[drawn.Critical[len(drawn.Critical)-1]]

	sp = stage(name, "extract")
	gl, err := ExtractGateLengths(ctx, t, litho.Nominal, true)
	sp.End()
	if err != nil {
		return v, err
	}
	lens := sta.TypeLengths(nl, gl.Delay, gl.Leak)
	sp = stage(name, "sta-silicon")
	silicon := sta.Analyze(nl, lib, lens, period)
	sp.End()

	v.before = []float64{
		math.Abs(silicon.WNS) / period,
		sta.RankDistance(sta.PathRank(nl, drawn), sta.PathRank(nl, silicon)),
		math.Abs(silicon.LeakTotal-drawn.LeakTotal) / drawn.LeakTotal,
	}
	v.after = []float64{0, 0, 0}
	v.note = "litho simulation + extraction in the signoff loop"
	return v, nil
}
