package repro

// Benchmark harness: one benchmark per experiment in DESIGN.md's
// index. Each benchmark times the experiment's core computation and,
// on its first iteration, prints the table or series the experiment
// reports (EXPERIMENTS.md records the measured rows).
//
// Run all of them with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/dfm"
	"repro/internal/dpt"
	"repro/internal/drc"
	"repro/internal/dvia"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/metrology"
	"repro/internal/obs"
	"repro/internal/opc"
	"repro/internal/pattern"
	"repro/internal/repair"
	"repro/internal/sta"
	"repro/internal/surrogate"
	"repro/internal/tech"
	"repro/internal/tiling"
	yieldpkg "repro/internal/yield"
)

var printOnce sync.Map

// report prints the experiment's rows exactly once across -benchtime
// iterations.
func report(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkT1RedundantVia — T1: redundant-via insertion yield gain vs
// cost across block sizes.
func BenchmarkT1RedundantVia(b *testing.B) {
	t := tech.N45()
	t.Defects.ViaFailProb = 1e-5
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, r := range []int{2, 4, 6} {
			l, err := layout.GenerateBlock(t, layout.BlockOpts{
				Rows: r, RowWidth: 10000, Nets: 10 * r, MaxFan: 4, Seed: int64(r),
			})
			if err != nil {
				b.Fatal(err)
			}
			g, err := dvia.EvaluateInsertion(context.Background(), l.Flatten(), t)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("T1 rows=%d vias=%d singles=%d doubled=%d Yvia %.6f -> %.6f",
				r, g.SinglesBefore+2*g.PairsBefore, g.SinglesBefore, g.AddedCuts, g.Before, g.After))
		}
		report("T1", func() {
			for _, s := range rows {
				fmt.Println(s)
			}
		})
	}
}

// BenchmarkT2DRCPlusCapture — T2: hotspot capture, plain DRC vs DRC
// Plus pattern matching.
func BenchmarkT2DRCPlusCapture(b *testing.B) {
	t := tech.N45()
	for i := 0; i < b.N; i++ {
		o := dfm.EvalDRCPlus(context.Background(), t, 11, 12)
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		report("T2", func() {
			p, _ := o.Primary()
			fmt.Printf("T2 capture: plain DRC %.2f -> DRC Plus %.2f (%s)\n",
				p.Before, p.After, o.CostNote)
		})
	}
}

// BenchmarkT3OPCAccuracy — T3: EPE statistics for no / rule-based /
// model-based OPC.
func BenchmarkT3OPCAccuracy(b *testing.B) {
	t := tech.N45()
	for i := 0; i < b.N; i++ {
		o := dfm.EvalOPCAccuracy(context.Background(), t)
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		report("T3", func() {
			for _, m := range o.Metrics {
				fmt.Printf("T3 %s: %.2f -> %.2f %s\n", m.Name, m.Before, m.After, m.Unit)
			}
		})
	}
}

// BenchmarkF1ProcessWindow — F1: focus-exposure window of an isolated
// line with and without SRAFs.
func BenchmarkF1ProcessWindow(b *testing.B) {
	t := tech.N45()
	drawn := []geom.Rect{geom.R(0, 0, 70, 3000)}
	window := geom.R(-450, 1200, 550, 1800)
	defocus := []float64{0, 20, 40, 60, 80, 100, 120, 140, 160}
	dose := []float64{0.92, 0.96, 1.0, 1.04, 1.08}
	for i := 0; i < b.N; i++ {
		measure := func(mask []geom.Rect, tag string) float64 {
			cd0, ok := litho.Simulate(mask, window, t.Optics, litho.Nominal).CDAt(35, 1500, true)
			if !ok {
				b.Fatalf("%s: no print", tag)
			}
			pts := litho.FEMatrix(mask, window, t.Optics, 35, 1500, true,
				litho.CDSpec{Target: cd0, Tol: 0.10}, defocus, dose)
			dof := litho.DepthOfFocus(pts, defocus)
			report("F1-"+tag, func() {
				fmt.Printf("F1 %s: nominal CD %.1fnm, DOF %.0fnm, EL@0 %.2f\n",
					tag, cd0, dof, litho.ExposureLatitude(pts, 0))
				for _, f := range defocus {
					for _, p := range pts {
						if p.Cond.Defocus == f && p.Cond.Dose == 1.0 {
							fmt.Printf("F1 %s f=%3.0f CD=%.1f ok=%v\n", tag, f, p.CD, p.OK)
						}
					}
				}
			})
			return dof
		}
		bare := geom.Normalize(drawn)
		dofB := measure(bare, "bare")
		dofS := measure(opc.WithSRAF(bare), "sraf")
		if dofS < dofB {
			b.Fatalf("SRAF shrank DOF: %v -> %v", dofB, dofS)
		}
	}
}

// BenchmarkF2CriticalArea — F2: critical area vs defect size, and
// yield vs defect density.
func BenchmarkF2CriticalArea(b *testing.B) {
	t := tech.N45()
	l, err := layout.GenerateBlock(t, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 20, MaxFan: 3, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	flat := l.Flatten()
	nets := layout.NetsOn(flat, tech.Metal1)
	d := yieldpkg.SizeDist{X0: t.Defects.X0, XMax: t.Defects.XMax}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := yieldpkg.Curve(d, func(x int64) int64 {
			return yieldpkg.ShortCriticalArea(nets, x)
		}, 8)
		// Combined average critical area over the routing layers.
		var ac float64
		for _, lay := range []tech.Layer{tech.Metal1, tech.Metal2, tech.Metal3} {
			lr := yieldpkg.AnalyzeLayer(flat, lay, t.Defects)
			ac += lr.ShortAC + lr.OpenAC
		}
		report("F2", func() {
			for _, p := range curve {
				fmt.Printf("F2 CA_short_m1(x=%.0fnm) = %d nm2\n", p.X, p.CA)
			}
			// Yield-vs-density falloff shows at chip scale: extrapolate
			// the block's average critical area to a 0.5 cm^2 die.
			blockArea := float64(geom.BBoxOf(layout.ByLayer(flat)[tech.Metal1]).Area())
			scale := 0.5e14 / blockArea // 0.5 cm^2 in nm^2
			for _, d0 := range []float64{0.1, 0.25, 0.5, 1.0, 2.0} {
				fmt.Printf("F2 chip yield(D0=%.2f/cm2) Poisson=%.4f NB=%.4f\n",
					d0, yieldpkg.Poisson(ac*scale, d0), yieldpkg.NegBinomial(ac*scale, d0, t.Defects.Alpha))
			}
		})
	}
}

// BenchmarkT4FillDensity — T4: dummy-fill density uniformity and CMP
// planarity, with area cost.
func BenchmarkT4FillDensity(b *testing.B) {
	t := tech.N45()
	for i := 0; i < b.N; i++ {
		o := dfm.EvalDummyFill(context.Background(), t, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3, Seed: 11})
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		report("T4", func() {
			for _, m := range o.Metrics {
				fmt.Printf("T4 %s: %.4f -> %.4f %s\n", m.Name, m.Before, m.After, m.Unit)
			}
			fmt.Printf("T4 cost: %.2f%% added metal (%s)\n", 100*o.CostFrac, o.CostNote)
		})
	}
}

// BenchmarkT5LithoTiming — T5: drawn vs post-OPC-extracted timing.
func BenchmarkT5LithoTiming(b *testing.B) {
	t := tech.N45()
	for i := 0; i < b.N; i++ {
		o := dfm.EvalLithoTiming(context.Background(), t, 9)
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		report("T5", func() {
			for _, m := range o.Metrics {
				fmt.Printf("T5 %s: %.4f %s\n", m.Name, m.Before, m.Unit)
			}
		})
	}
}

// BenchmarkF3PatternCoverage — F3: layout pattern catalog coverage
// curves and cross-design KL divergence. The headline series follows
// the source study exactly: via-enclosure patterns (metal2 context
// around every via1 cut); an M1-corner catalog is reported as the
// irregular-layer contrast.
func BenchmarkF3PatternCoverage(b *testing.B) {
	t := tech.N45()
	mk := func(seed int64) (m1, m2 []geom.Rect, vias []geom.Rect) {
		l, err := layout.GenerateBlock(t, layout.BlockOpts{Rows: 4, RowWidth: 12000, Nets: 40, MaxFan: 4, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		by := layout.ByLayer(l.Flatten())
		return by[tech.Metal1], by[tech.Metal2], by[tech.Via1]
	}
	m1A, m2A, viasA := mk(1)
	_, m2B, viasB := mk(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Via-enclosure catalogs: metal2 context at each via center.
		viaCat := func(m2, vias []geom.Rect) *pattern.Catalog {
			cat := pattern.NewCatalog(150)
			norm := geom.Normalize(m2)
			ix := geom.NewIndex(600)
			ix.InsertAll(norm)
			for _, v := range vias {
				cat.Add(pattern.ExtractAtIndexed(ix, v.Center(), 150), v.Center())
			}
			return cat
		}
		catA := viaCat(m2A, viasA)
		catB := viaCat(m2B, viasB)
		cornerCat := pattern.NewCatalog(200)
		cornerCat.AddLayer(m1A)
		report("F3", func() {
			fmt.Printf("F3 via-enclosure catalog A: %d vias, %d classes\n", catA.Total(), catA.NumClasses())
			for _, k := range []int{1, 5, 10, 20} {
				fmt.Printf("F3 via coverage(top %d) = %.3f\n", k, catA.Coverage(k))
			}
			fmt.Printf("F3 via classes for 90%% coverage: %d\n", catA.ClassesFor(0.90))
			fmt.Printf("F3 KL(A||B) = %.4f, KL(B||A) = %.4f\n",
				catA.KLDivergence(catB), catB.KLDivergence(catA))
			fmt.Printf("F3 outliers in A vs B (10x, >=5): %d\n", len(catA.Outliers(catB, 10, 5)))
			fmt.Printf("F3 m1-corner catalog: %d instances, %d classes, top-10 coverage %.3f\n",
				cornerCat.Total(), cornerCat.NumClasses(), cornerCat.Coverage(10))
		})
	}
}

// BenchmarkT6RestrictedRules — T6: restricted design rules, PV-band
// robustness vs area.
func BenchmarkT6RestrictedRules(b *testing.B) {
	t := tech.N45()
	for i := 0; i < b.N; i++ {
		o := dfm.EvalRestrictedRules(context.Background(), t)
		if o.Err != nil {
			b.Fatal(o.Err)
		}
		report("T6", func() {
			for _, m := range o.Metrics {
				fmt.Printf("T6 %s: %.4g -> %.4g %s\n", m.Name, m.Before, m.After, m.Unit)
			}
			fmt.Printf("T6 area cost: %.2f%%\n", 100*o.CostFrac)
		})
	}
}

// BenchmarkF4MonteCarloSTA — F4: timing/leakage distributions, nominal
// vs litho-systematic means.
func BenchmarkF4MonteCarloSTA(b *testing.B) {
	t := tech.N45()
	nl := circuit.RandomLogic(10, 12, 14, 9)
	lib := sta.DefaultLib()
	nom := sta.Analyze(nl, lib, sta.Lengths{}, 0)
	period := 1.05 * nom.Arrival[nom.Critical[len(nom.Critical)-1]]
	gl, err := dfm.ExtractGateLengths(context.Background(), t, litho.Nominal, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := sta.MonteCarlo(nl, lib, sta.Variation{SigmaL: 1.5}, period, 200, 1)
		aware := sta.MonteCarlo(nl, lib, sta.Variation{SigmaL: 1.5, SystematicL: gl.Delay}, period, 200, 1)
		report("F4", func() {
			fmt.Printf("F4 nominal-mean MC: WNS %.1f+-%.1f ps (min %.1f), leak %.3g+-%.2g A\n",
				base.WNSMean, base.WNSSigma, base.WNSMin, base.LeakMean, base.LeakSigma)
			fmt.Printf("F4 litho-mean MC:   WNS %.1f+-%.1f ps (min %.1f), leak %.3g+-%.2g A\n",
				aware.WNSMean, aware.WNSSigma, aware.WNSMin, aware.LeakMean, aware.LeakSigma)
		})
	}
}

// BenchmarkT7Scorecard — T7: the full hit-or-hype scorecard.
func BenchmarkT7Scorecard(b *testing.B) {
	t := tech.N45()
	for i := 0; i < b.N; i++ {
		sc := dfm.RunAll(context.Background(), t, 11)
		report("T7", func() {
			fmt.Print(sc.Table())
		})
	}
}

// BenchmarkF5DPT — F5 (extension): double-patterning conflicts vs
// pitch on a diagonal-adjacency grid.
func BenchmarkF5DPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, pitch := range []int64{400, 300, 250, 200, 170} {
			var rs []geom.Rect
			rnd := rand.New(rand.NewSource(3))
			for x := int64(0); x < 10; x++ {
				for y := int64(0); y < 10; y++ {
					ox := rnd.Int63n(pitch / 4)
					rs = append(rs, geom.R(x*pitch+ox+y*pitch/2, y*pitch, x*pitch+ox+y*pitch/2+80, y*pitch+80))
				}
			}
			res := dpt.Decompose(rs, 160, true, 40)
			rows = append(rows, fmt.Sprintf("F5 pitch=%d edges=%d conflicts=%d stitches=%d imbalance=%.3f",
				pitch, res.Edges, len(res.Conflicts), res.Stitches, res.DensityBalance()))
		}
		report("F5", func() {
			for _, s := range rows {
				fmt.Println(s)
			}
		})
	}
}

// ---- Full-chip streaming benches (PR7): the tiled engine vs the
// flatten-everything baseline on the same small SoC floorplan. The
// three numbers to compare are ChipTiled (cold cache, intra-run
// reuse only), ChipTiledWarm (every tile replayed from cache), and
// ChipFlat (the baseline the tiled results are proven equal to). ----

// chipBench builds the shared 3x3-slot workload.
func chipBench(b *testing.B) (*layout.Cell, tiling.Opts) {
	b.Helper()
	l, _, err := layout.GenerateChip(tech.N45(), layout.ChipOpts{Seed: 7, Slots: 3, Defects: 4})
	if err != nil {
		b.Fatal(err)
	}
	return l.Top, tiling.Opts{
		Tile: 24000, Halo: 2000,
		DRC: true, Density: true, DensityWindow: 3000,
		MaxViolations: 100_000,
	}
}

// BenchmarkChipTiled — halo-tiled streaming evaluation, fresh cache
// each iteration: what a first full-chip run costs, including the
// intra-run reuse between identical tiles.
func BenchmarkChipTiled(b *testing.B) {
	top, o := chipBench(b)
	ex := tiling.NewExtractor(top)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cache = tiling.NewCache(0)
		res, err := tiling.Evaluate(context.Background(), tech.N45(), ex, o)
		if err != nil {
			b.Fatal(err)
		}
		report("chip-tiled", func() {
			fmt.Printf("chip tiled: %d tiles, %d hits/%d misses, %d violations\n",
				res.Stats.Tiles, res.Stats.TileHits, res.Stats.TileMisses, len(res.Violations))
		})
	}
}

// BenchmarkChipTiledWarm — same evaluation against a pre-warmed cache:
// the incremental-rerun cost when nothing changed.
func BenchmarkChipTiledWarm(b *testing.B) {
	top, o := chipBench(b)
	ex := tiling.NewExtractor(top)
	o.Cache = tiling.NewCache(0)
	if _, err := tiling.Evaluate(context.Background(), tech.N45(), ex, o); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tiling.Evaluate(context.Background(), tech.N45(), ex, o)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.TileMisses != 0 {
			b.Fatalf("warm run missed %d tiles", res.Stats.TileMisses)
		}
	}
}

// BenchmarkChipFlat — the flatten-everything baseline on the same
// chip and deck set.
func BenchmarkChipFlat(b *testing.B) {
	top, o := chipBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.EvaluateFlat(context.Background(), tech.N45(), top, o); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Surrogate fast path benches (PR9): the uncertainty-gated ML
// pre-filter on the full-chip hotspot scan vs the exact-only scan of
// the same chip. The acceptance bar is a >= 5x scan speedup with
// recall 1.0 on the generator's injected litho defects; the
// calibration gauges (holdout MAPE / Pearson / precision / recall)
// are what EXPERIMENTS.md R9 judges the hit-or-hype verdict on. ----

// surrogateChip builds the ~1M-rect workload: a via-farm-heavy mix
// keeps most metal1 windows clean (the population the gate can skip)
// while the logic macros and six injected defects supply the dirty
// tail that must fall through to exact simulation.
func surrogateChip(b *testing.B) (*layout.Cell, layout.ChipInfo, tiling.Opts) {
	b.Helper()
	l, info, err := layout.GenerateChip(tech.N45(), layout.ChipOpts{
		Seed: 11, TargetRects: 1_000_000, HotspotDefects: 6,
		MacroMix: []int{1, 1, 0, 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	o := tiling.Opts{
		Tile: 24000, Halo: 2000,
		Hotspots:        []tech.Layer{tech.Metal1},
		HotspotCond:     litho.Nominal,
		HotspotInterior: true,
	}
	return l.Top, info, o
}

// surrogateRecall fails the benchmark unless every injected defect
// site overlaps a reported hotspot on its layer: the gated scan is
// only a win if it provably loses nothing.
func surrogateRecall(b *testing.B, info layout.ChipInfo, res *tiling.Result) {
	b.Helper()
	for _, site := range info.HotspotSites {
		found := false
		for _, h := range res.Hotspots[site.Layer] {
			if h.Box.Overlaps(site.Box) {
				found = true
				break
			}
		}
		if !found {
			b.Fatalf("gated scan lost the injected %s defect at %v", site.Kind, site.Box)
		}
	}
}

// BenchmarkSurrogateChipScan — the headline experiment: the gated
// scan (timed per iteration) against the exact-only scan of the same
// chip (timed once). The speedup, skip counts and holdout calibration
// are printed as plain lines in their own units; defect recall is a
// b.Fatal gate, not a number.
func BenchmarkSurrogateChipScan(b *testing.B) {
	top, info, o := surrogateChip(b)
	ex := tiling.NewExtractor(top)
	ctx := context.Background()

	exactStart := time.Now()
	exact, err := tiling.Evaluate(ctx, tech.N45(), ex, o)
	if err != nil {
		b.Fatal(err)
	}
	exactNS := time.Since(exactStart).Nanoseconds()
	surrogateRecall(b, info, exact)

	o.Surrogate = &surrogate.Config{Seed: 11}
	b.ReportAllocs()
	b.ResetTimer()
	var res *tiling.Result
	for i := 0; i < b.N; i++ {
		res, err = tiling.Evaluate(ctx, tech.N45(), ex, o)
		if err != nil {
			b.Fatal(err)
		}
		surrogateRecall(b, info, res)
	}
	b.StopTimer()
	gatedNS := int64(b.Elapsed()) / int64(b.N)
	rep := res.Surrogate[tech.Metal1]
	if rep == nil || rep.Skipped == 0 {
		b.Fatalf("gate skipped nothing; report: %+v", rep)
	}
	report("surrogate-chip", func() {
		fmt.Printf("surrogate chip: %d rects, %d windows (%d non-empty), sampled %d, skipped %d, guarded %d, exact %d\n",
			info.Rects, rep.Windows, rep.NonEmpty, rep.Sampled, rep.Skipped, rep.Guarded, rep.Exact)
		fmt.Printf("surrogate calib: TClean %.3f, holdout %d (%d dirty), MAPE %.3f, r %.3f, P %.2f, R %.2f\n",
			rep.TClean, rep.Holdout, rep.HoldoutDirty, rep.MAPE, rep.Pearson, rep.Precision, rep.Recall)
		fmt.Printf("surrogate time: exact-only %.1fs, gated %.1fs, speedup %.2fx\n",
			float64(exactNS)/1e9, float64(gatedNS)/1e9, float64(exactNS)/float64(gatedNS))
	})
}

// BenchmarkSurrogateTrain — the training microbenchmark: featurize +
// boost on a synthetic window population, the in-loop cost the gate
// adds to every chip evaluation.
func BenchmarkSurrogateTrain(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	win := geom.R(0, 0, 12000, 12000)
	n := 512
	X := make([]surrogate.Features, n)
	y := make([]float64, n)
	for i := range X {
		var rs []geom.Rect
		for j := 0; j < 40; j++ {
			x0, y0 := rnd.Int63n(11000), rnd.Int63n(11000)
			w := int64(90 + rnd.Intn(400))
			if i%9 == 0 && j == 0 {
				w = 30
			}
			rs = append(rs, geom.R(x0, y0, x0+w, y0+rnd.Int63n(800)+100))
		}
		X[i] = surrogate.WindowFeatures(win, 1000, rs, nil, 42, 42)
		if i%9 == 0 {
			y[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := surrogate.Train(X, y, 64, 0.3)
		if len(m.Stumps) == 0 {
			b.Fatal("training learned nothing")
		}
	}
}

// BenchmarkGeomBoolean times the geometry kernel on block-scale data
// (supporting microbenchmark, not a paper experiment).
func BenchmarkGeomBoolean(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	var rs []geom.Rect
	for i := 0; i < 2000; i++ {
		x, y := rnd.Int63n(100000), rnd.Int63n(100000)
		rs = append(rs, geom.R(x, y, x+rnd.Int63n(500)+50, y+rnd.Int63n(500)+50))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = geom.Normalize(rs)
	}
}

// BenchmarkDRCBlock times the full standard deck on a generated block.
func BenchmarkDRCBlock(b *testing.B) {
	t := tech.N45()
	l, err := layout.GenerateBlock(t, layout.BlockOpts{Rows: 4, RowWidth: 12000, Nets: 25, MaxFan: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	flat := l.Flatten()
	deck := drc.StandardDeck(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := drc.NewContext(t, flat)
		res := deck.Run(ctx)
		if res.Count() > len(flat) {
			b.Fatal("implausible violation count")
		}
	}
}

// BenchmarkLithoSimulate times one aerial-image tile.
func BenchmarkLithoSimulate(b *testing.B) {
	t := tech.N45()
	cell := layout.LineSpace(t, tech.Metal1, 70, 70, 3000, 12)
	rs := cell.LayerRects(tech.Metal1)
	window := geom.R(0, 0, 2000, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := litho.Simulate(rs, window, t.Optics, litho.Nominal)
		if img.Max() <= 0 {
			b.Fatal("empty image")
		}
	}
}

// BenchmarkLithoSimulateObs is BenchmarkLithoSimulate with the
// metrics registry recording. Comparing the pair bounds the cost of
// the instrumentation when a sink is attached; the disabled cost is
// the delta between BenchmarkLithoSimulate before and after the obs
// layer landed (<2% — the disabled path is one atomic load + branch
// per instrument site).
func BenchmarkLithoSimulateObs(b *testing.B) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	t := tech.N45()
	cell := layout.LineSpace(t, tech.Metal1, 70, 70, 3000, 12)
	rs := cell.LayerRects(tech.Metal1)
	window := geom.R(0, 0, 2000, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := litho.Simulate(rs, window, t.Optics, litho.Nominal)
		if img.Max() <= 0 {
			b.Fatal("empty image")
		}
	}
}

// scanWindowBench returns the first full scan window of the
// benchmark's chip_litho chip (2x2 slots of logic and via macros,
// two injected hotspot sites) and the metal1 geometry reaching it.
func scanWindowBench(b *testing.B) (*tech.Tech, []geom.Rect, geom.Rect) {
	b.Helper()
	t := tech.N45()
	l, _, err := layout.GenerateChip(t, layout.ChipOpts{
		Seed: 11, Slots: 2, SlotPitch: 14000, MacroMix: []int{0, 2, 2, 1}, HotspotDefects: 2})
	if err != nil {
		b.Fatal(err)
	}
	ex := tiling.NewExtractor(l.Top)
	win := litho.ScanGrid(ex.LayerBBox(tech.Metal1))[0]
	if win.Width() != litho.ScanTileNM || win.Height() != litho.ScanTileNM {
		b.Fatalf("first scan window %v is not a full %d nm tile", win, litho.ScanTileNM)
	}
	reach := win.Bloat(litho.ScanPadNM + litho.SimPadNM(t.Optics, 0) + 2*int64(t.Optics.GridNM+1))
	return t, ex.AppendLayerRects(reach, tech.Metal1, nil), win
}

// BenchmarkScanWindow — one exact 12 um hotspot-scan window end to
// end (amplitude, threshold, morphology, blobs, interior filter): the
// unit every chip-scale scan, fleet window job and surrogate label is
// priced in. ns/op and B/op are the per-window cost and garbage.
func BenchmarkScanWindow(b *testing.B) {
	t, rs, win := scanWindowBench(b)
	o := litho.ScanOpts{Cond: litho.Nominal, Interior: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, err := litho.ScanWindowCtx(context.Background(), rs, win, t, tech.Metal1, o)
		if err != nil {
			b.Fatal(err)
		}
		report("scan-window", func() {
			fmt.Printf("scan window %v: %d rects in reach, %d hotspots\n", win, len(rs), len(hs))
		})
	}
}

// BenchmarkScanWindowDense — the same window filled wall to wall with
// 70 nm lines on a 140 nm pitch: every column group of every band is
// touched and every bitmap row's extent is its full width, so nothing
// the kernel skips on a blank window is skipped here. It is the
// counter-case to BenchmarkScanWindow: what the occupancy-proportional
// sink, clears and morphology cost when there is no blank, and nearer
// what a production metal1 window looks like than the generator's
// rings and routing channels are.
func BenchmarkScanWindowDense(b *testing.B) {
	t := tech.N45()
	win := geom.R(0, 0, litho.ScanTileNM, litho.ScanTileNM)
	reach := win.Bloat(litho.ScanPadNM + litho.SimPadNM(t.Optics, 0))
	var rs []geom.Rect
	for x := reach.X0; x < reach.X1; x += 140 {
		rs = append(rs, geom.R(x, reach.Y0, x+70, reach.Y1))
	}
	o := litho.ScanOpts{Cond: litho.Nominal, Interior: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := litho.ScanWindowCtx(context.Background(), rs, win, t, tech.Metal1, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitmapOpen — morphological opening of that window's
// printed bitmap (2600 x 2600 px) at the metal1 pinch radius: the
// detector's inner operation, which was 67% of a window before the
// bitmap was word-packed.
func BenchmarkBitmapOpen(b *testing.B) {
	t, rs, win := scanWindowBench(b)
	printed := litho.Simulate(rs, win.Bloat(litho.ScanPadNM), t.Optics, litho.Nominal).PrintedBitmap()
	minW, _ := litho.ScanDefaults(t, tech.Metal1)
	r := int(float64(minW)/printed.Pitch/2 + 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if printed.Open(r).Count() == 0 {
			b.Fatal("opening erased the whole window")
		}
	}
}

// BenchmarkFillSynthesize times fill synthesis on a die-scale extent.
func BenchmarkFillSynthesize(b *testing.B) {
	rs := []geom.Rect{geom.R(0, 0, 10000, 30000)}
	extent := geom.R(0, 0, 40000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiles := fill.Synthesize(rs, extent, 5000, 2500)
		if len(tiles) == 0 {
			b.Fatal("no tiles")
		}
	}
}

// ---- Ablation benches: the design choices DESIGN.md calls out. ----

// BenchmarkAblationOPCIterations sweeps the model-OPC iteration count:
// the convergence-vs-runtime tradeoff.
func BenchmarkAblationOPCIterations(b *testing.B) {
	t := tech.N45()
	drawn := geom.Normalize([]geom.Rect{
		geom.R(0, 0, 70, 1200), geom.R(140, 0, 210, 1200), geom.R(500, 0, 570, 1200),
	})
	window := geom.BBoxOf(drawn).Bloat(400)
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, iters := range []int{1, 2, 3, 5, 8} {
			mo := opc.DefaultModelOpts()
			mo.Iterations = iters
			res := opc.ModelBased(drawn, window, t.Optics, mo)
			rows = append(rows, fmt.Sprintf("ablation opc-iters=%d rms=%.2f", iters, res.RMSHistory[len(res.RMSHistory)-1]))
		}
		report("ablation-opc-iters", func() {
			for _, s := range rows {
				fmt.Println(s)
			}
		})
	}
}

// BenchmarkAblationFragmentLength sweeps OPC fragment length: finer
// fragments correct better but cost mask complexity.
func BenchmarkAblationFragmentLength(b *testing.B) {
	t := tech.N45()
	drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 70, 1500)})
	window := geom.BBoxOf(drawn).Bloat(400)
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, ml := range []int64{60, 120, 240, 480} {
			mo := opc.DefaultModelOpts()
			mo.MaxLen = ml
			res := opc.ModelBased(drawn, window, t.Optics, mo)
			rows = append(rows, fmt.Sprintf("ablation frag-len=%d rms=%.2f frags=%d",
				ml, res.RMSHistory[len(res.RMSHistory)-1], len(res.Fragments)))
		}
		report("ablation-frag", func() {
			for _, s := range rows {
				fmt.Println(s)
			}
		})
	}
}

// BenchmarkAblationILTvsModel compares inverse and model-based OPC on
// the same target: print fidelity and mask complexity.
func BenchmarkAblationILTvsModel(b *testing.B) {
	t := tech.N45()
	drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 70, 1200)})
	window := geom.BBoxOf(drawn).Bloat(350)
	rms := func(mask []geom.Rect) float64 {
		img := litho.Simulate(mask, window, t.Optics, litho.Nominal)
		return litho.SummarizeEPE(img.MeasureEPE(drawn, 120)).RMS
	}
	for i := 0; i < b.N; i++ {
		model := opc.ModelBased(drawn, window, t.Optics, opc.DefaultModelOpts())
		inv := opc.ILT(drawn, window, t.Optics)
		report("ablation-ilt", func() {
			fmt.Printf("ablation model-opc rms=%.2f shapes=%d\n", rms(model.Mask), len(model.Mask))
			fmt.Printf("ablation inverse-opc rms=%.2f shapes=%d\n", rms(inv.Mask), len(inv.Mask))
		})
	}
}

// BenchmarkAblationPatternRadius sweeps the DRC Plus context radius:
// separation quality of hotspot vs clean patterns.
func BenchmarkAblationPatternRadius(b *testing.B) {
	// Facing line-end pairs (hot) vs isolated tips (clean).
	var rs []geom.Rect
	var hot, clean []geom.Point
	for i := int64(0); i < 4; i++ {
		x := i * 3000
		rs = append(rs, geom.R(x, 0, x+70, 1000), geom.R(x, 1260, x+70, 2260))
		hot = append(hot, geom.Pt(x, 1000))
	}
	for i := int64(0); i < 4; i++ {
		x := i*3000 + 15000
		rs = append(rs, geom.R(x, 0, x+70, 1000))
		clean = append(clean, geom.Pt(x, 1000))
	}
	radii := []int64{100, 150, 200, 300, 400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evals, best := pattern.OptimizeRadius(rs, hot, clean, radii)
		report("ablation-radius", func() {
			for _, ev := range evals {
				fmt.Printf("ablation pattern-radius=%d falseRate=%.2f hotClasses=%d\n",
					ev.Radius, ev.FalseRate, ev.HotClasses)
			}
			fmt.Printf("ablation pattern-radius chosen=%d\n", best)
		})
	}
}

// BenchmarkAblationFillWindow sweeps the fill analysis window: finer
// windows equalize harder at more fill cost.
func BenchmarkAblationFillWindow(b *testing.B) {
	t := tech.N45()
	l, err := layout.GenerateBlock(t, layout.BlockOpts{Rows: 3, RowWidth: 10000, Nets: 15, MaxFan: 3, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	m1 := layout.ByLayer(l.Flatten())[tech.Metal1]
	extent := geom.BBoxOf(m1).Bloat(6000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, win := range []int64{2000, 3000, 5000, 8000} {
			tiles := fill.Synthesize(m1, extent, win, win/2)
			after := fill.Analyze(append(append([]geom.Rect{}, m1...), tiles...), extent, win, win/2).Summarize()
			rows = append(rows, fmt.Sprintf("ablation fill-window=%d tiles=%d sigma=%.4f min=%.3f",
				win, len(tiles), after.Sigma, after.Min))
		}
		report("ablation-fill", func() {
			for _, s := range rows {
				fmt.Println(s)
			}
		})
	}
}

// BenchmarkMetrologyPlan times design-driven metrology plan generation
// and execution on a block layer.
func BenchmarkMetrologyPlan(b *testing.B) {
	t := tech.N45()
	l, err := layout.GenerateBlock(t, layout.BlockOpts{Rows: 2, RowWidth: 6000, Nets: 8, MaxFan: 3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	m1 := layout.ByLayer(l.Flatten())[tech.Metal1]
	window := geom.BBoxOf(m1).Bloat(300)
	img := litho.Simulate(m1, window, t.Optics, litho.Nominal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := metrology.GeneratePlan(m1, tech.Metal1)
		ms := metrology.Execute(plan, img, metrology.DefaultTool(), 1)
		st := metrology.Summarize(ms)
		report("metrology", func() {
			fmt.Println(plan)
			for _, k := range []metrology.SiteKind{metrology.LineWidth, metrology.SpaceWidth, metrology.LineEnd} {
				s := st[k]
				fmt.Printf("metrology %-8s n=%d valid=%d meanErr=%.2fnm sigma=%.2fnm\n",
					k, s.N, s.Valid, s.MeanErr, s.Sigma)
			}
		})
	}
}

// BenchmarkF6Scaling — F6 (extension): computational technology
// scaling. Shrink a standard-cell poly layer by progressive factors
// and watch printability metrics find the breaking point — the
// layout-printability-verification approach to deciding which rules
// can be pushed in the next node.
func BenchmarkF6Scaling(b *testing.B) {
	t := tech.N45()
	cell := layout.Nand2(t)
	poly := geom.Normalize(cell.LayerRects(tech.Poly))
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, s := range []struct{ num, den int64 }{{10, 10}, {9, 10}, {8, 10}, {7, 10}, {6, 10}} {
			scaled := geom.Scale(poly, s.num, s.den)
			window := geom.BBoxOf(scaled).Bloat(300)
			// The full flow: OPC the scaled layout, then verify the
			// print against the scaled target.
			res := opc.ModelBased(scaled, window, t.Optics, opc.DefaultModelOpts())
			img := litho.Simulate(res.Mask, window, t.Optics, litho.Nominal)
			printed := img.PrintedRects()
			drawnArea := geom.AreaOf(scaled)
			coverage := 0.0
			if drawnArea > 0 {
				coverage = float64(geom.AreaOf(geom.Intersect(printed, scaled))) / float64(drawnArea)
			}
			rms := litho.SummarizeEPE(img.MeasureEPE(scaled, 100)).RMS
			rows = append(rows, fmt.Sprintf("F6 scale=%.1f printedCoverage=%.3f rmsEPE=%.1f",
				float64(s.num)/float64(s.den), coverage, rms))
		}
		report("F6", func() {
			for _, r := range rows {
				fmt.Println(r)
			}
		})
	}
}

// BenchmarkAblationPWOPC compares nominal-only and process-window OPC
// at the defocus corner.
func BenchmarkAblationPWOPC(b *testing.B) {
	t := tech.N45()
	drawn := geom.Normalize([]geom.Rect{geom.R(0, 0, 90, 1500)})
	window := geom.BBoxOf(drawn).Bloat(400)
	corner := litho.Condition{Defocus: 80, Dose: 1}
	rmsAt := func(mask []geom.Rect, cond litho.Condition) float64 {
		img := litho.Simulate(mask, window, t.Optics, cond)
		return litho.SummarizeEPE(img.MeasureEPE(drawn, 120)).RMS
	}
	for i := 0; i < b.N; i++ {
		mo := opc.DefaultModelOpts()
		nom := opc.ModelBased(drawn, window, t.Optics, mo)
		pw := opc.ProcessWindowOPC(drawn, window, t.Optics, mo, opc.StandardPWCorners(80))
		report("ablation-pwopc", func() {
			fmt.Printf("ablation nominal-opc: rms@nominal=%.2f rms@f80=%.2f\n",
				rmsAt(nom.Mask, litho.Nominal), rmsAt(nom.Mask, corner))
			fmt.Printf("ablation pw-opc:      rms@nominal=%.2f rms@f80=%.2f\n",
				rmsAt(pw.Mask, litho.Nominal), rmsAt(pw.Mask, corner))
		})
	}
}

// ---- In-design score-and-repair benches (PR10): the repair loop on
// a ~1M-rect chip, and its incremental dirty-region re-evaluation
// against a from-scratch run of the repaired chip. The acceptance bar
// is a repaired weighted score strictly below the original and an
// incremental re-evaluation >= 5x cheaper than full, bit-identical
// results. ----

// repairChip builds the ~1M-rect repair workload: injected spacing
// defects (spread candidates) plus repairable via sites
// (under-enclosed pads and single cuts) on top of the standard macro
// mix.
func repairChip(b *testing.B) (*layout.Cell, layout.ChipInfo, tiling.Opts) {
	b.Helper()
	l, info, err := layout.GenerateChip(tech.N45(), layout.ChipOpts{
		Seed: 11, TargetRects: 1_000_000, Defects: 8, RepairDefects: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	return l.Top, info, tiling.Opts{Tile: 24000, Halo: 2000, DRC: true}
}

// BenchmarkRepairLoop — the full in-design loop (score, propose,
// legality-check, apply, incremental rescore) timed per iteration;
// the incremental-vs-full differential timed once and printed.
func BenchmarkRepairLoop(b *testing.B) {
	top, info, o := repairChip(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var (
		out *repair.Outcome
		err error
	)
	for i := 0; i < b.N; i++ {
		out, err = repair.Run(ctx, tech.N45(), top, repair.Opts{Eval: o, Rounds: 2, MaxFixes: 64})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if out.After.Total >= out.Before.Total {
		b.Fatalf("repair did not improve the weighted score: %.1f -> %.1f", out.Before.Total, out.After.Total)
	}
	if len(out.Applied) == 0 {
		b.Fatal("repair applied no fixes")
	}

	// Replay the loop's merged edits as one dirty region against a
	// fresh snapshot of the original chip and race the incremental
	// re-evaluation against a from-scratch run of the repaired chip.
	var dirty repair.Delta
	for _, f := range out.Applied {
		dirty.Merge(f.Delta)
	}
	_, snap, err := tiling.EvaluateSnap(ctx, tech.N45(), tiling.NewExtractor(top), o)
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	incRes, _, err := tiling.EvaluateDelta(ctx, tech.N45(), tiling.NewExtractor(out.Top), snap, dirty.Rects())
	if err != nil {
		b.Fatal(err)
	}
	incNS := time.Since(t0).Nanoseconds()
	t1 := time.Now()
	fullRes, err := tiling.EvaluateChip(ctx, tech.N45(), out.Top, o)
	if err != nil {
		b.Fatal(err)
	}
	fullNS := time.Since(t1).Nanoseconds()
	if !tiling.Equivalent(incRes, fullRes) {
		b.Fatal("incremental re-evaluation diverges from the from-scratch run")
	}
	speedup := float64(fullNS) / float64(incNS)
	if speedup < 5 {
		b.Fatalf("incremental re-evaluation only %.2fx cheaper than full, want >= 5x", speedup)
	}

	report("repair-loop", func() {
		fmt.Printf("repair chip: %d rects, %d spacing defects, %d repair sites\n",
			info.Rects, len(info.DefectBoxes), len(info.RepairSites))
		fmt.Printf("repair loop: score %.1f -> %.1f, %v applied, %d rejected, %d delta / %d full re-evals\n",
			out.Before.Total, out.After.Total, out.AppliedByKind(), len(out.Rejected), out.DeltaEvals, out.FullEvals)
		fmt.Printf("repair delta: incremental %.2fs vs full %.2fs, speedup %.2fx\n",
			float64(incNS)/1e9, float64(fullNS)/1e9, speedup)
	})
}
