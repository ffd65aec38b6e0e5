package repro

// Benchmarks that time: the chip engine, the surrogate gate, the repair
// loop and the kernel micro-rows bench-smoke runs. Every row is time and
// allocations; four of them also print a diagnostic line of counts on
// their first call (b.N == 1, which the runner uses exactly once per
// benchmark), after the timed loop. The paper's experiments are in
// experiments_test.go, timed by BenchmarkExperiment.
//
//	go test -run='^$' -bench=. -benchmem .

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dfm"
	"repro/internal/drc"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/surrogate"
	"repro/internal/tech"
	"repro/internal/tiling"
)

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
	var res *tiling.Result
	for i := 0; i < b.N; i++ {
		o.Cache = tiling.NewCache(0)
		var err error
		if res, err = tiling.Evaluate(context.Background(), tech.N45(), ex, o); err != nil {
			b.Fatal(err)
		}
	}
	if b.N == 1 {
		fmt.Printf("chip tiled: %d tiles, %d hits/%d misses, %d violations\n",
			res.Stats.Tiles, res.Stats.TileHits, res.Stats.TileMisses, len(res.Violations))
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
// the same chip, both through the result cache dfmscore -chip passes by
// default. ROADMAP item 2's rule: the gate stays only while the gated
// scan is at least 2x faster than the cached exact scan on one of the
// two chips. Recall 1.0 on the generator's injected litho defects is a
// b.Fatal gate; what the gate costs in real hotspots is printed. ----

// surrogateCache is dfmscore -chip's default -chipcache.
const surrogateCache = 8192

// surrogateRecall fails the benchmark unless every injected defect
// site overlaps a reported hotspot on its layer.
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
			b.Fatalf("scan lost the injected %s defect at %v", site.Kind, site.Box)
		}
	}
}

// BenchmarkSurrogateChipScan — the headline experiment, per chip: the
// gated scan (timed per iteration) against the exact-only scan of the
// same chip (timed once), each from a fresh cache. The speedup, skip
// counts, holdout calibration and both arms' metal1 hotspot counts are
// printed as plain lines in their own units; defect recall is a b.Fatal
// gate, not a number.
func BenchmarkSurrogateChipScan(b *testing.B) {
	// Two ~1M-rect chips: a via-farm-heavy mix, which keeps most metal1
	// windows clean (the population the gate can skip) while the logic
	// macros and six injected defects supply the dirty tail, and
	// dfmscore -chip's own default mix.
	for _, sc := range []struct {
		name string
		chip layout.ChipOpts
	}{
		{"via-farm", layout.ChipOpts{Seed: 11, TargetRects: 1_000_000, HotspotDefects: 6, MacroMix: []int{1, 1, 0, 4}}},
		{"default", layout.ChipOpts{Seed: 11, TargetRects: 1_000_000, Defects: 8, HotspotDefects: 6}},
	} {
		b.Run(sc.name, func(b *testing.B) {
			l, info, err := layout.GenerateChip(tech.N45(), sc.chip)
			if err != nil {
				b.Fatal(err)
			}
			ex := tiling.NewExtractor(l.Top)
			ctx := context.Background()
			o := tiling.Opts{
				Tile: 24000, Halo: 2000,
				Hotspots:        []tech.Layer{tech.Metal1},
				HotspotInterior: true,
				Cache:           tiling.NewCache(surrogateCache),
			}

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
				o.Cache = tiling.NewCache(surrogateCache)
				if res, err = tiling.Evaluate(ctx, tech.N45(), ex, o); err != nil {
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
			if b.N == 1 {
				gated := map[litho.Hotspot]bool{}
				for _, h := range res.Hotspots[tech.Metal1] {
					gated[h] = true
				}
				lost := 0
				for _, h := range exact.Hotspots[tech.Metal1] {
					if !gated[h] {
						lost++
					}
				}
				fmt.Printf("surrogate %s chip: %d rects, %d windows (%d non-empty), sampled %d, skipped %d, guarded %d, exact %d\n",
					sc.name, info.Rects, rep.Windows, rep.NonEmpty, rep.Sampled, rep.Skipped, rep.Guarded, rep.Exact)
				fmt.Printf("surrogate %s calib: TClean %.3f, holdout %d (%d dirty), MAPE %.3f, r %.3f, P %.2f, R %.2f\n",
					sc.name, rep.TClean, rep.Holdout, rep.HoldoutDirty, rep.MAPE, rep.Pearson, rep.Precision, rep.Recall)
				fmt.Printf("surrogate %s time: exact-only %.2fs, gated %.2fs, speedup %.2fx (both cached)\n",
					sc.name, float64(exactNS)/1e9, float64(gatedNS)/1e9, float64(exactNS)/float64(gatedNS))
				fmt.Printf("surrogate %s hotspots: exact-only %d, gated %d, %d exact-only hotspots missing from gated\n",
					sc.name, len(exact.Hotspots[tech.Metal1]), len(res.Hotspots[tech.Metal1]), lost)
			}
		})
	}
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
		if simulate(b, rs, window, t, litho.Nominal).Max() <= 0 {
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
	BenchmarkLithoSimulate(b)
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
	var hs []litho.Hotspot
	for i := 0; i < b.N; i++ {
		var err error
		if hs, err = litho.ScanWindowCtx(context.Background(), rs, win, t, tech.Metal1, o); err != nil {
			b.Fatal(err)
		}
	}
	if b.N == 1 {
		fmt.Printf("scan window %v: %d rects in reach, %d hotspots\n", win, len(rs), len(hs))
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
	printed := simulate(b, rs, win.Bloat(litho.ScanPadNM), t, litho.Nominal).PrintedBitmap()
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

// BenchmarkScorecard runs the scorecard as the benchmark's scorecard
// workload does at its default seed: dfm.RunAllConfig over seeds 11 to
// 14, two techniques at a time. It fails on any technique's error and
// reports the sweep's y-events per op, a deterministic count of the
// region ops the scorecard ran. make scoreprofile profiles it.
func BenchmarkScorecard(b *testing.B) {
	t := tech.N45()
	cfg := dfm.DefaultConfig()
	cfg.Parallel = 2
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)
	events := obs.Default().Snapshot().Counters["geom.sweep.events"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := int64(11); seed < 15; seed++ {
			for _, o := range dfm.RunAllConfig(context.Background(), t, seed, cfg).Outcomes {
				if o.Err != nil {
					b.Fatalf("seed %d: %s: %v", seed, o.Technique, o.Err)
				}
			}
		}
	}
	b.StopTimer()
	events = obs.Default().Snapshot().Counters["geom.sweep.events"] - events
	b.ReportMetric(float64(events)/float64(b.N), "sweep-events/op")
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

	if b.N == 1 {
		fmt.Printf("repair chip: %d rects, %d spacing defects, %d repair sites\n",
			info.Rects, len(info.DefectBoxes), len(info.RepairSites))
		fmt.Printf("repair loop: score %.1f -> %.1f, %v applied, %d rejected, %d delta / %d full re-evals\n",
			out.Before.Total, out.After.Total, out.AppliedByKind(), len(out.Rejected), out.DeltaEvals, out.FullEvals)
		fmt.Printf("repair delta: incremental %.2fs vs full %.2fs, speedup %.2fx\n",
			float64(incNS)/1e9, float64(fullNS)/1e9, speedup)
	}
}
