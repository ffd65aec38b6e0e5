package tiling

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/drc"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
)

// diffResults fails the test unless the two results carry identical
// violations, rule counts, hotspots, and density maps. Stats are
// intentionally not compared.
func diffResults(t *testing.T, label string, tiled, flat *Result) {
	t.Helper()
	if !reflect.DeepEqual(tiled.Violations, flat.Violations) {
		t.Errorf("%s: violations differ: tiled %d, flat %d", label, len(tiled.Violations), len(flat.Violations))
		for i := 0; i < len(tiled.Violations) || i < len(flat.Violations); i++ {
			var a, b interface{}
			if i < len(tiled.Violations) {
				a = tiled.Violations[i]
			}
			if i < len(flat.Violations) {
				b = flat.Violations[i]
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: first diff at %d:\n  tiled: %+v\n  flat:  %+v", label, i, a, b)
			}
		}
		t.FailNow()
	}
	if !reflect.DeepEqual(tiled.ByRule, flat.ByRule) {
		t.Fatalf("%s: ByRule differ:\n  tiled: %v\n  flat:  %v", label, tiled.ByRule, flat.ByRule)
	}
	if tiled.Dropped != flat.Dropped {
		t.Fatalf("%s: Dropped = %d, flat %d", label, tiled.Dropped, flat.Dropped)
	}
	if !reflect.DeepEqual(tiled.Hotspots, flat.Hotspots) {
		t.Fatalf("%s: hotspots differ:\n  tiled: %v\n  flat:  %v", label, tiled.Hotspots, flat.Hotspots)
	}
	if !reflect.DeepEqual(tiled.Density, flat.Density) {
		t.Fatalf("%s: density maps differ", label)
	}
}

// A handmade two-cluster layout: exercises empty tiles between the
// clusters (their density windows must still report zero and violate
// the min-density rule exactly like the flat run), a seam-straddling
// spacing defect, and a clean in-cluster defect.
func twoClusterCell() *layout.Cell {
	c := layout.NewCell("X_CLUSTERS")
	put := func(ox, oy int64) {
		for i := int64(0); i < 4; i++ {
			for j := int64(0); j < 4; j++ {
				c.Add(tech.Metal1, geom.R(ox+i*3000, oy+j*3000, ox+i*3000+1000, oy+j*3000+1000))
				c.Add(tech.Metal2, geom.R(ox+i*3000, oy+j*3000, ox+i*3000+1000, oy+j*3000+1000))
				c.Add(tech.Metal3, geom.R(ox+i*3000, oy+j*3000, ox+i*3000+1000, oy+j*3000+1000))
			}
		}
	}
	put(0, 0)
	put(100000, 0)
	// Spacing defect straddling the x=8000 tile boundary (Tile 8000).
	c.Add(tech.Metal2, geom.R(7600, 1500, 7970, 1570))
	c.Add(tech.Metal2, geom.R(8020, 1500, 8390, 1570))
	// Compact defect well inside the first cluster.
	c.Add(tech.Metal2, geom.R(1500, 1500, 1800, 1570))
	c.Add(tech.Metal2, geom.R(1850, 1500, 2150, 1570))
	return c
}

func TestTiledMatchesFlatSynthetic(t *testing.T) {
	tt := tech.N45()
	top := twoClusterCell()
	o := Opts{Tile: 8000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true}
	flat, err := EvaluateFlat(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateFlat: %v", err)
	}
	if len(flat.Violations) == 0 {
		t.Fatal("synthetic layout produced no violations; test is vacuous")
	}
	tiled, err := EvaluateChip(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateChip: %v", err)
	}
	if tiled.Stats.EmptyTiles == 0 {
		t.Fatal("expected empty tiles between the clusters")
	}
	diffResults(t, "synthetic", tiled, flat)
}

// The headline differential: a generated chip with injected defects,
// evaluated flat once and tiled across two tile sizes and two halo
// widths (all misaligned with the slot pitch), plus a DRC-only combo
// with the tightest legal halo. Every combination must reproduce the
// flat result exactly.
func TestTiledMatchesFlatChipGrid(t *testing.T) {
	tt := tech.N45()
	top := chipTop(t, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3,
		MacroMix: []int{0, 1, 1, 1}, // sram needs a 24000 slot; keep the test chip small
	})
	o := Opts{DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true}
	flat, err := EvaluateFlat(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateFlat: %v", err)
	}
	if flat.ByRule["metal2.space.70"] < 3 {
		t.Fatalf("expected >= 3 injected metal2.space violations, ByRule = %v", flat.ByRule)
	}
	for _, tile := range []int64{9000, 16000} {
		for _, halo := range []int64{2000, 4000} {
			o := o
			o.Tile, o.Halo = tile, halo
			tiled, err := EvaluateChip(context.Background(), tt, top, o)
			if err != nil {
				t.Fatalf("EvaluateChip(tile=%d, halo=%d): %v", tile, halo, err)
			}
			diffResults(t, fmt.Sprintf("tile=%d halo=%d", tile, halo), tiled, flat)
		}
	}

	// DRC-only: no density stretch, so the tight halo is the real pad.
	oDRC := Opts{DRC: true, Tile: 7000, Halo: 500}
	flatDRC, err := EvaluateFlat(context.Background(), tt, top, oDRC)
	if err != nil {
		t.Fatalf("EvaluateFlat(drc-only): %v", err)
	}
	tiledDRC, err := EvaluateChip(context.Background(), tt, top, oDRC)
	if err != nil {
		t.Fatalf("EvaluateChip(drc-only): %v", err)
	}
	diffResults(t, "drc-only tight halo", tiledDRC, flatDRC)
}

// Islands under the width limit both ways, each one marker with two
// measurements (drc's TestDedupSurvivorIsOrderIndependent): a tile meets
// the island's edges among different neighbours than the flat run does,
// so which measurement survives must not depend on that. Sprinkled over
// a generated chip and planted across the seams of the 9000 grid.
func TestTiledMatchesFlatNarrowIslands(t *testing.T) {
	tt := tech.N45()
	l, info, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, MacroMix: []int{0, 1, 1, 1}})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	rnd := rand.New(rand.NewSource(15))
	die := info.Die
	// Each island stands clear of all other metal1: within a spacing of
	// a neighbour it would also draw spacing violations, which is not
	// what is under test.
	near := geom.NewIndex(die, 1024)
	for _, s := range l.Flatten() {
		if s.Layer == tech.Metal1 {
			near.Insert(s.R)
		}
	}
	for i := 0; i < 600; i++ {
		x, y := die.X0+rnd.Int63n(die.Width()), die.Y0+rnd.Int63n(die.Height())
		if i%3 == 0 {
			x = die.X0 + 9000*(1+rnd.Int63n(3)) - rnd.Int63n(60)
		}
		r := geom.R(x, y, x+40+rnd.Int63n(29), y+40+rnd.Int63n(29))
		if len(near.Query(r.Bloat(200))) == 0 {
			near.Insert(r)
			l.Top.Add(tech.Metal1, r)
		}
	}
	o := Opts{DRC: true}
	flat, err := EvaluateFlat(context.Background(), tt, l.Top, o)
	if err != nil {
		t.Fatalf("EvaluateFlat: %v", err)
	}
	both := 0
	for _, v := range flat.Violations {
		if m := v.Marker; v.Rule == "metal1.width.70" && m.Width() < 70 && m.Height() < 70 {
			both++
		}
	}
	if both < 100 {
		t.Fatalf("%d markers with two measurements; test is vacuous", both)
	}
	for _, tile := range []int64{9000, 16000} {
		o.Tile, o.Halo = tile, 2000
		tiled, err := EvaluateChip(context.Background(), tt, l.Top, o)
		if err != nil {
			t.Fatalf("EvaluateChip(tile=%d): %v", tile, err)
		}
		diffResults(t, fmt.Sprintf("islands tile=%d", tile), tiled, flat)
	}
}

// Full stack including the litho hotspot scan, against the flat
// oracle. The scan grid is derived from the layer bbox, so the result
// must also be independent of tile size.
func TestTiledMatchesFlatFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("litho simulation differential is slow; skipped in -short")
	}
	tt := tech.N45()
	// A compact hierarchical cell keeps the scan grid at 2x2 windows:
	// the differential needs flat AND tiled simulation of every
	// window, which dominates this test's runtime. The leaf carries a
	// 30nm drawn neck in a 90nm metal1 line — a guaranteed printed
	// pinch (and a metal1.width violation). One instance sits across
	// the x=8000 tile boundary and one across the x=12000 scan-window
	// boundary, so seam handling in both stages is exercised.
	leaf := layout.NewCell("X_TLEAF")
	leaf.Add(tech.Metal1, geom.R(0, 0, 90, 1000))
	leaf.Add(tech.Metal1, geom.R(30, 1000, 60, 1200)) // 30-wide neck
	leaf.Add(tech.Metal1, geom.R(0, 1200, 90, 2200))
	leaf.Add(tech.Metal2, geom.R(200, 0, 1400, 1200))
	leaf.Add(tech.Metal3, geom.R(200, 1300, 1400, 2200))
	top := layout.NewCell("X_TCHIP")
	for _, at := range []geom.Point{
		geom.Pt(500, 500), geom.Pt(7950, 3000), geom.Pt(11960, 6000),
		geom.Pt(4000, 9500), geom.Pt(10500, 10500),
	} {
		top.Place(leaf, geom.Translate(at.X, at.Y), fmt.Sprintf("u%d_%d", at.X, at.Y))
	}
	// Corner markers pin the die to 13000 x 13000.
	top.Add(tech.Metal1, geom.R(12500, 12500, 13000, 13000))
	top.Add(tech.Metal1, geom.R(0, 12500, 500, 13000))
	top.Add(tech.Metal1, geom.R(12500, 0, 13000, 500))
	o := defaultOpts()
	o.Tile, o.Halo = 8000, 2000
	flat, err := EvaluateFlat(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateFlat: %v", err)
	}
	tiled, err := EvaluateChip(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateChip: %v", err)
	}
	diffResults(t, "full stack", tiled, flat)
	if len(flat.Hotspots[tech.Metal1]) == 0 {
		t.Fatal("expected printed pinch hotspots; differential is vacuous")
	}
	if tiled.Stats.Windows == 0 {
		t.Fatal("expected hotspot scan windows to run")
	}
	// Both engines scan through the shared stage-B driver; the
	// independent reference is the whole-layer scan of the flattened,
	// normalized layer.
	m1 := geom.Normalize(layout.ByLayer((&layout.Layout{Top: top}).Flatten())[tech.Metal1])
	ref, err := litho.ScanLayer(context.Background(), m1, tt, tech.Metal1, litho.ScanOpts{Cond: litho.Nominal})
	if err != nil {
		t.Fatalf("litho.ScanLayer: %v", err)
	}
	for name, r := range map[string]*Result{"flat": flat, "tiled": tiled} {
		if !reflect.DeepEqual(r.Hotspots[tech.Metal1], ref) {
			t.Fatalf("%s metal1 hotspots %v != litho.ScanLayer %v", name, r.Hotspots[tech.Metal1], ref)
		}
	}

	// Replay: the same evaluation through a fresh-then-warm cache must
	// stay bit-identical and hit on every non-empty tile and window.
	o.Cache = NewCache(0)
	ex := NewExtractor(top)
	if _, err := Evaluate(context.Background(), tt, ex, o); err != nil {
		t.Fatalf("cache warm-up: %v", err)
	}
	warm, err := Evaluate(context.Background(), tt, ex, o)
	if err != nil {
		t.Fatalf("warm replay: %v", err)
	}
	diffResults(t, "warm cache replay", warm, flat)
	if warm.Stats.TileMisses != 0 || warm.Stats.WindowMisses != 0 {
		t.Fatalf("warm cache: %d tile misses, %d window misses, want 0",
			warm.Stats.TileMisses, warm.Stats.WindowMisses)
	}
}

// seamChip is a small hierarchical chip, 13000 x 5500 nm with its
// corner at the origin: the leaf carries a 30 nm neck in a 90 nm metal1
// line (a printed pinch and a metal1.width violation) and a 50 nm
// metal2 gap; one instance sits across the x=8000 tile boundary (Tile
// 8000) and one across the x=12000 scan-window boundary.
func seamChip() *layout.Cell {
	leaf := layout.NewCell("X_SLEAF")
	leaf.Add(tech.Metal1, geom.R(0, 0, 90, 1000))
	leaf.Add(tech.Metal1, geom.R(30, 1000, 60, 1200))
	leaf.Add(tech.Metal1, geom.R(0, 1200, 90, 2200))
	leaf.Add(tech.Metal2, geom.R(200, 0, 1400, 1200))
	leaf.Add(tech.Metal2, geom.R(200, 1250, 1400, 2200))
	top := layout.NewCell("X_SCHIP")
	for _, at := range []geom.Point{geom.Pt(500, 500), geom.Pt(7950, 3000), geom.Pt(11960, 1000)} {
		top.Place(leaf, geom.Translate(at.X, at.Y), fmt.Sprintf("u%d_%d", at.X, at.Y))
	}
	top.Add(tech.Metal1, geom.R(0, 0, 500, 90))
	top.Add(tech.Metal1, geom.R(12500, 5410, 13000, 5500))
	return top
}

// translated returns r moved by d, outputs only.
func translated(r *Result, d geom.Point) *Result {
	out := &Result{ByRule: r.ByRule, Dropped: r.Dropped,
		Hotspots: make(map[tech.Layer][]litho.Hotspot), Density: make(map[tech.Layer]fill.DensityMap)}
	for _, v := range r.Violations {
		v.Marker = v.Marker.Translate(d)
		out.Violations = append(out.Violations, v)
	}
	for l, hs := range r.Hotspots {
		for _, h := range hs {
			h.Box = h.Box.Translate(d)
			out.Hotspots[l] = append(out.Hotspots[l], h)
		}
	}
	for l, dm := range r.Density {
		moved := fill.DensityMap{Density: dm.Density}
		for _, w := range dm.Windows {
			moved.Windows = append(moved.Windows, w.Translate(d))
		}
		out.Density[l] = moved
	}
	return out
}

// The property every unit in one frame rests on, held from outside: a
// chip's evaluation does not depend on where the chip sits. One chip at
// the origin, at a negative offset, and at an offset that is a multiple
// of neither the tile, the density window nor the litho grid pitch —
// each result is the first one translated, equals the flat evaluation
// of the moved chip, and through one shared cache only the first run
// computes anything: a unit's content address and its cached result
// know nothing of the chip frame.
func TestEvaluateTranslationInvariant(t *testing.T) {
	tt := tech.N45()
	o := defaultOpts()
	o.Tile, o.Halo = 8000, 2000
	o.Cache = NewCache(0)
	chip := seamChip()
	var base *Result
	for _, d := range []geom.Point{geom.Pt(0, 0), geom.Pt(-40000, -13001), geom.Pt(123457, 76543)} {
		top := layout.NewCell(fmt.Sprintf("X_AT_%d_%d", d.X, d.Y))
		top.Place(chip, geom.Translate(d.X, d.Y), "chip")
		res, err := EvaluateChip(context.Background(), tt, top, o)
		if err != nil {
			t.Fatalf("at %v: EvaluateChip: %v", d, err)
		}
		oFlat := o
		oFlat.Cache = nil
		flat, err := EvaluateFlat(context.Background(), tt, top, oFlat)
		if err != nil {
			t.Fatalf("at %v: EvaluateFlat: %v", d, err)
		}
		diffResults(t, fmt.Sprintf("at %v vs flat", d), res, flat)
		if base == nil {
			base = res
			if len(res.Violations) == 0 || len(res.Hotspots[tech.Metal1]) == 0 || len(res.Density) == 0 ||
				res.Stats.TileMisses < 2 || res.Stats.WindowMisses < 2 {
				t.Fatalf("base run is vacuous: %d violations, %d hotspots, %d density maps, stats %+v",
					len(res.Violations), len(res.Hotspots[tech.Metal1]), len(res.Density), res.Stats)
			}
			continue
		}
		diffResults(t, fmt.Sprintf("at %v vs the origin run translated", d), res, translated(base, d))
		if !Equivalent(res, translated(base, d)) {
			t.Errorf("at %v: Equivalent(moved, origin run translated) = false", d)
		}
		if st := res.Stats; st.TileMisses != 0 || st.WindowMisses != 0 || st.TileHits != base.Stats.TileMisses || st.WindowHits != base.Stats.WindowMisses {
			t.Errorf("at %v: computed %d tiles and %d windows (hits %d, %d), want every unit of the origin run (%d, %d) replayed",
				d, st.TileMisses, st.WindowMisses, st.TileHits, st.WindowHits, base.Stats.TileMisses, base.Stats.WindowMisses)
		}
	}
}

func TestEvaluateCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	top := twoClusterCell()
	if _, err := EvaluateChip(ctx, tech.N45(), top, defaultOpts()); err == nil {
		t.Fatal("EvaluateChip on canceled context: want error, got nil")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	res, err := EvaluateChip(context.Background(), tech.N45(), layout.NewCell("X_EMPTY"), defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 || res.Stats.Tiles != 0 {
		t.Fatalf("empty cell: %+v", res)
	}
}

func TestMinHalo(t *testing.T) {
	h := MinHalo(tech.N45())
	// Metal3 min-area components of legal width reach MinArea/MinWidth
	// = 400nm, the widest interaction of the deck.
	if h != 400 {
		t.Fatalf("MinHalo(N45) = %d, want 400", h)
	}
}

// A tile with no deck and no density rule — every tile of a
// hotspot-only evaluation — builds no drc.Context, and returns what a
// context checked by an empty deck returns: no violations (nil) and an
// empty density list that is not nil.
func TestComputeTileWithNothingToCheck(t *testing.T) {
	tt := tech.N45()
	core := geom.R(0, 0, 24000, 24000)
	shapes := (&layout.Layout{Top: seamChip()}).Flatten()
	got, err := computeTile(context.Background(), tt, nil, nil, nil, shapes, core, core.Bloat(2000), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := computeTile(context.Background(), tt, &drc.Deck{}, nil, nil, shapes, core, core.Bloat(2000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Violations != nil || got.Dens == nil || len(got.Dens) != 0 {
		t.Fatalf("no deck, no density: %#v; an empty deck: %#v", got, want)
	}
}

// One worker's scratch carried through tiles chosen to leave stale tails
// behind — the chip's largest tile, an empty one, a single-layer one of
// fewer regions (metal1 islands under the area rule), one of two gates
// with short endcaps, the largest again — answers each as a fresh
// context does, and what it returned for a tile still holds after the
// tiles that followed wrote over the scratch. The largest tile holds
// gates of its own, so a gate layer kept from the tile before would
// show.
func TestTileScratchReuse(t *testing.T) {
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, Slots: 4, Defects: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(l.Top)
	p := newPlan(tt, ex, Opts{DRC: true, Density: true, DensityWindow: 3000})
	var big *TileRequest
	for i := range p.nx * p.ny {
		if u, _ := p.tileUnit(i, ex, nil); big == nil || len(u.Shapes) > len(big.Shapes) {
			big = u
		}
	}
	empty, single, gated := *big, *big, *big
	empty.Shapes, single.Shapes = nil, nil
	for x := int64(1000); x < 13000; x += 600 {
		single.Shapes = append(single.Shapes, layout.Shape{Layer: tech.Metal1, R: geom.R(x, 1000, x+100, 1100)})
	}
	gated.Shapes = []layout.Shape{
		{Layer: tech.Poly, R: geom.R(1200, 900, 1250, 1260)},
		{Layer: tech.Poly, R: geom.R(960, 1580, 1600, 1630)},
		{Layer: tech.Diff, R: geom.R(1000, 1000, 1500, 1200)},
		{Layer: tech.Diff, R: geom.R(1000, 1500, 1500, 1700)},
	}
	var poly, diff []geom.Rect
	for _, s := range big.Shapes {
		switch s.Layer {
		case tech.Poly:
			poly = append(poly, s.R)
		case tech.Diff:
			diff = append(diff, s.R)
		}
	}
	if len(geom.Intersect(geom.Normalize(poly), geom.Normalize(diff))) == 0 {
		t.Fatal("the largest tile holds no gates; the gate layer goes unchecked")
	}
	units := []*TileRequest{big, &empty, &single, &gated, big}
	core := geom.R(0, 0, big.CoreW, big.CoreH)
	fresh := func(u *TileRequest) *TileResult {
		out, err := computeTile(context.Background(), tt, p.std, p.densRules, nil, u.Shapes, core, core.Bloat(u.Pad), u.Windows)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var sc tileScratch
	var got []*TileResult
	for k, u := range units {
		sc.shapes = append(sc.shapes[:0], u.Shapes...)
		out, err := computeTile(context.Background(), tt, p.std, p.densRules, &sc.deck, sc.shapes, core, core.Bloat(u.Pad), u.Windows)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(u); !reflect.DeepEqual(out, want) {
			t.Fatalf("tile %d of %d shapes: the reused scratch gives %d violations, a fresh context %d",
				k, len(u.Shapes), len(out.Violations), len(want.Violations))
		}
		got = append(got, out)
	}
	endcaps := 0
	for _, v := range got[3].Violations {
		if v.Rule == (drc.Endcap{Ext: 100}).Name() {
			endcaps++
		}
	}
	if len(got[0].Violations) == 0 || len(got[2].Violations) != len(single.Shapes) || endcaps != 2 {
		t.Fatalf("largest tile: %d violations; %d islands: %d violations; two short gates: %d endcap violations; the case is vacuous",
			len(got[0].Violations), len(single.Shapes), len(got[2].Violations), endcaps)
	}
	for k, u := range units {
		if !reflect.DeepEqual(got[k], fresh(u)) {
			t.Fatalf("tile %d's result moved when later tiles reused the scratch", k)
		}
	}
}
