package tiling

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/drc"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// stitchOracle is the whole-chip stitch as it stood before the
// incremental one: concatenate every tile's run-length-encoded list and
// every out-of-range window, sort, merge equal values to their longest
// run. Kept as the reference stitchTiles is compared against; it fills
// and returns res.
func (p *plan) stitchOracle(res *Result, outs []*TileResult) *Result {
	res.Stats.Tiles = len(outs)
	for _, name := range p.rules {
		res.ByRule[name] = 0
	}
	// Density: reassemble the global per-rule value arrays.
	densVals := make([][]float64, len(p.densRules))
	for di := range p.densRules {
		densVals[di] = make([]float64, len(p.wins))
	}
	seen := 0
	for i, out := range outs {
		seen += len(out.Violations)
		for di := range p.densRules {
			for j, wi := range p.perTileWins[i] {
				densVals[di][wi] = out.Dens[di][j]
			}
		}
	}
	// Multiplicity-aware dedup — a violation seen by several tiles (its
	// marker straddles cores or sits in halo overlap) counts once per
	// flat occurrence, keeping genuine in-tile duplicates intact (max
	// multiplicity across tiles equals the flat multiplicity, since
	// some tile sees the full local context). Each tile's sorted list
	// is run-length encoded, the runs of all tiles are sorted together,
	// and equal violations merge to their longest run.
	type run struct {
		v drc.Violation
		n int
	}
	runs := make([]run, 0, seen)
	var scratch []drc.Violation
	for _, out := range outs {
		// A deck run returns its violations sorted; a result from
		// elsewhere (an older node's cache) is sorted on a copy, since
		// outs are shared with the cache and the snapshot.
		own := out.Violations
		if !slices.IsSortedFunc(own, drc.CompareViolations) {
			scratch = append(scratch[:0], own...)
			drc.SortViolations(scratch)
			own = scratch
		}
		for i := 0; i < len(own); {
			j := i + 1
			for j < len(own) && own[j] == own[i] {
				j++
			}
			runs = append(runs, run{own[i], j - i})
			i = j
		}
	}
	// Out-of-range density windows go through the rule's own formatter,
	// once per rule and value bits (-0 renders apart from 0): the marker
	// is the only part of a violation that depends on the window.
	type densKey struct {
		di   int
		bits uint64
	}
	formatted := make(map[densKey]drc.Violation)
	for di, dr := range p.densRules {
		for wi, d := range densVals[di] {
			if d < dr.Min || d > dr.Max {
				k := densKey{di, math.Float64bits(d)}
				v, ok := formatted[k]
				if !ok {
					v = dr.Violation(geom.Rect{}, d)
					formatted[k] = v
				}
				v.Marker = p.wins[wi]
				runs = append(runs, run{v, 1})
				seen++
			}
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return drc.CompareViolations(a.v, b.v) })
	var all []drc.Violation // stays nil when nothing violates, as in the flat result
	if len(runs) > 0 {
		all = make([]drc.Violation, 0, len(runs))
	}
	for i := 0; i < len(runs); {
		n, j := runs[i].n, i+1
		for ; j < len(runs) && runs[j].v == runs[i].v; j++ {
			n = max(n, runs[j].n)
		}
		for k := 0; k < n; k++ {
			all = append(all, runs[i].v)
		}
		i = j
	}
	for _, v := range all {
		res.ByRule[v.Rule]++
	}
	res.Violations = all
	if p.opts.KeepDensityMaps {
		for di, dr := range p.densRules {
			res.Density[dr.Layer] = fill.DensityMap{Windows: p.wins, Density: densVals[di]}
		}
	}
	return res
}

// The stitch keeps, for every distinct violation, the most copies any
// one tile reported: a violation in halo overlap is seen once by each
// neighbour and counts once, a genuine in-tile duplicate (two cuts
// drawn on the same spot) survives, and neither the order tiles report
// in nor the order within a tile matters. A density violation merges
// into the same sorted list.
func TestStitchKeepsMaxMultiplicity(t *testing.T) {
	v := func(rule string, x int64) drc.Violation {
		return drc.Violation{Rule: rule, Layer: tech.Metal1, Marker: geom.R(x, 0, x+10, 10), Detail: "d"}
	}
	a, b, c, d := v("r1", 0), v("r1", 50), v("r2", 0), v("r0", 7)
	dens := drc.DensityWindow{Layer: tech.Metal2, Window: 100, Min: 0.2, Max: 0.8}
	win := geom.R(0, 0, 100, 100)
	p := &plan{
		rules:       []string{"r0", "r1", "r2", dens.Name()},
		densRules:   []drc.DensityWindow{dens},
		wins:        []geom.Rect{win},
		perTileWins: [][]int{{0}, nil, nil},
	}
	outs := []*TileResult{
		{Violations: []drc.Violation{c, a, a}, Dens: [][]float64{{0.05}}}, // unsorted, a twice
		{Violations: []drc.Violation{a, b, b, b}, Dens: [][]float64{nil}},
		{Violations: []drc.Violation{a, a, b, d}, Dens: [][]float64{nil}},
	}
	want := []drc.Violation{dens.Violation(win, 0.05), d, a, a, b, b, b, c}
	drc.SortViolations(want)
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		perm := make([]*TileResult, len(outs))
		pp := *p
		pp.perTileWins = make([][]int, len(outs))
		for i, j := range order {
			perm[i] = outs[j]
			pp.perTileWins[i] = p.perTileWins[j]
		}
		before := slices.Clone(outs[0].Violations)
		res := newResult()
		pp.stitchTiles(res, perm, []int{0, 1, 2}, nil)
		if oracle := newResult(); !Equivalent(res, pp.stitchOracle(oracle, perm)) {
			t.Fatalf("tile order %v: stitch differs from the whole-chip oracle:\n got %v\nwant %v", order, res.Violations, oracle.Violations)
		}
		if !slices.Equal(res.Violations, want) {
			t.Fatalf("tile order %v:\n got %v\nwant %v", order, res.Violations, want)
		}
		if res.ByRule["r1"] != 5 || res.ByRule["r2"] != 1 || res.ByRule["r0"] != 1 || res.ByRule[dens.Name()] != 1 {
			t.Fatalf("ByRule = %v", res.ByRule)
		}
		if !slices.Equal(outs[0].Violations, before) {
			t.Fatal("stitch reordered a tile result it shares with the cache")
		}
	}
}

// With nothing to report the stitched list is nil, as EvaluateFlat's
// is: Equivalent compares the two with reflect.DeepEqual, which tells
// a nil slice from an empty one (a hotspot-only run has no deck at all).
func TestStitchOfNothingIsNil(t *testing.T) {
	p := &plan{perTileWins: [][]int{nil, nil}}
	res := newResult()
	p.stitchTiles(res, []*TileResult{{}, {}}, []int{0, 1}, nil)
	if res.Violations != nil {
		t.Fatalf("Violations = %#v, want nil", res.Violations)
	}
}

// rowPlan is a hand-built 1 x n grid of 1000nm tiles with one rule and
// no density: enough plan for the stitch and its tile arithmetic.
func rowPlan(n int) *plan {
	return &plan{
		opts: Opts{Tile: 1000}, die: geom.R(0, 0, int64(n)*1000, 1000),
		nx: n, ny: 1, rules: []string{"r"}, perTileWins: make([][]int, n),
	}
}

// snapshotOf stitches outs from scratch, as a first evaluation would.
func snapshotOf(p *plan, outs []*TileResult) *Snapshot {
	dirty := make([]int, len(outs))
	for i := range dirty {
		dirty[i] = i
	}
	s := &Snapshot{plan: p, outs: slices.Clone(outs)}
	s.st = p.stitchTiles(newResult(), s.outs, dirty, nil)
	return s
}

// A recomputed tile's run of a seam violation is only one candidate for
// its flat multiplicity: a spliced neighbour under the same marker may
// hold a longer one, and keeps holding it when the recomputed tile's
// shrinks to nothing. No real edit produces this (both tiles extract
// the marker's whole context, so both change together), which is why
// the stitch has to be told by hand.
func TestDeltaStitchResolvesAgainstCleanTiles(t *testing.T) {
	p := rowPlan(3)
	seam := drc.Violation{Rule: "r", Layer: tech.Metal1, Marker: geom.R(990, 10, 1010, 20), Detail: "d"}
	far := drc.Violation{Rule: "r", Layer: tech.Metal1, Marker: geom.R(2500, 10, 2510, 20), Detail: "d"}
	rep := func(v drc.Violation, n int) []drc.Violation {
		var out []drc.Violation
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
		return out
	}
	prev := snapshotOf(p, []*TileResult{{Violations: rep(seam, 2)}, {Violations: rep(seam, 3)}, {Violations: rep(far, 1)}})
	if n := len(prev.st.viol); n != 4 {
		t.Fatalf("baseline holds %d violations, want 3 seam + 1 far", n)
	}
	for _, tc := range []struct{ tile1, want int }{{1, 2}, {0, 2}, {4, 4}, {3, 3}} {
		outs := slices.Clone(prev.outs)
		outs[1] = &TileResult{Violations: rep(seam, tc.tile1)}
		res := newResult()
		st := p.stitchTiles(res, outs, []int{1}, prev)
		if !Equivalent(res, p.stitchOracle(newResult(), outs)) {
			t.Fatalf("tile 1 holds %d: delta stitch %v differs from the whole-chip oracle", tc.tile1, res.Violations)
		}
		if got := res.ByRule["r"]; got != tc.want+1 {
			t.Fatalf("tile 1 holds %d: ByRule[r] = %d, want %d seam + 1 far", tc.tile1, got, tc.want)
		}
		if len(st.viol) != tc.want+1 {
			t.Fatalf("tile 1 holds %d: stitched state keeps %d, want %d seam + 1 far", tc.tile1, len(st.viol), tc.want)
		}
		if len(prev.st.viol) != 4 || prev.st.byRule["r"] != 4 {
			t.Fatal("delta stitch wrote into the snapshot it was spliced from")
		}
	}
}

// What a one-tile delta's stitch allocates does not depend on how much
// the clean tiles hold: the retained list is copied in segments (one
// allocation whatever its length) and nothing is built per clean
// violation.
func TestDeltaStitchAllocsIgnoreCleanTiles(t *testing.T) {
	allocs := func(perTile int) float64 {
		p := rowPlan(8)
		outs := make([]*TileResult, 8)
		for ti := range outs {
			vs := make([]drc.Violation, perTile)
			for k := range vs {
				x := int64(ti)*1000 + 100 + int64(k%800)
				vs[k] = drc.Violation{Rule: "r", Layer: tech.Metal1, Marker: geom.R(x, int64(k), x+5, int64(k)+5), Detail: "d"}
			}
			drc.SortViolations(vs)
			outs[ti] = &TileResult{Violations: vs}
		}
		prev := snapshotOf(p, outs)
		next := slices.Clone(prev.outs)
		next[3] = &TileResult{Violations: slices.Clone(prev.outs[3].Violations[1:])}
		res := newResult()
		n := testing.AllocsPerRun(20, func() {
			p.stitchTiles(res, next, []int{3}, prev)
		})
		if len(res.Violations) != 8*perTile-1 {
			t.Fatalf("%d per tile: stitched %d violations, want %d", perTile, len(res.Violations), 8*perTile-1)
		}
		return n
	}
	small, large := allocs(10), allocs(5000)
	if large > small {
		t.Fatalf("a one-tile delta stitch allocates %v times over 8 x 10 violations and %v over 8 x 5000", small, large)
	}
}

// Every engine hands its violation list back in drc.SortViolations
// order: the guarantee Result.Violations states and repair.ScoreResult
// cuts rule runs on. Engines: Evaluate uncached and cached,
// EvaluateFlat, a loopback DistEvaluate, and an EvaluateDelta chain
// that removes, restores and removes defect pairs.
func TestViolationsInSortOrder(t *testing.T) {
	tt := tech.N45()
	ctx := context.Background()
	l, info, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3,
		MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	top := l.Top
	o := Opts{Tile: 9000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000}

	type run struct {
		name string
		res  *Result
	}
	var runs []run
	add := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs = append(runs, run{name, res})
	}
	full, err := Evaluate(ctx, tt, NewExtractor(top), o)
	add("evaluate", full, err)
	cached := o
	cached.Cache = NewCache(0)
	res, err := Evaluate(ctx, tt, NewExtractor(top), cached)
	add("cached", res, err)
	res, err = EvaluateFlat(ctx, tt, top, o)
	add("flat", res, err)
	res, err = DistEvaluate(ctx, tt, NewExtractor(top), o, &loopback{})
	add("dist", res, err)

	res, snap, err := EvaluateSnap(ctx, tt, NewExtractor(top), o)
	add("snap", res, err)
	pair0 := defectShapes(t, top, info.DefectBoxes[0])
	cur := top
	for i, edit := range []struct{ remove, add []layout.Shape }{
		{remove: pair0},
		{add: pair0},
		{remove: defectShapes(t, top, info.DefectBoxes[1])},
	} {
		next, changed := editCell(t, cur, edit.remove, edit.add)
		res, snap, err = EvaluateDelta(ctx, tt, NewExtractor(next), snap, changed)
		add(fmt.Sprintf("delta %d", i+1), res, err)
		cur = next
	}

	if len(full.ByRule) < 5 {
		t.Fatalf("chip breaks %d rules; too few for an order to show", len(full.ByRule))
	}
	for _, r := range runs {
		if len(r.res.Violations) == 0 {
			t.Errorf("%s: no violations; the check is vacuous", r.name)
		}
		if !slices.IsSortedFunc(r.res.Violations, drc.CompareViolations) {
			t.Errorf("%s: violations are not in SortViolations order", r.name)
		}
	}
}

// fuzzStitchPlan is a hand-built 3 x 2 grid of 1000nm tiles with two
// density rules over 1000nm windows stepped by 500 (24 windows, owned as
// newPlan assigns them) and rules named on both sides of each density
// rule's name.
func fuzzStitchPlan() *plan {
	p := &plan{
		opts: Opts{Tile: 1000, KeepDensityMaps: true}, die: geom.R(0, 0, 3000, 2000), nx: 3, ny: 2,
		densRules: []drc.DensityWindow{
			{Layer: tech.Metal3, Window: 1000, Min: 0.2, Max: 0.8},
			{Layer: tech.Metal2, Window: 1000, Min: 0.2, Max: 0.8},
		},
	}
	p.rules = slices.Clone(fuzzStitchRules)
	for _, dr := range p.densRules {
		p.rules = append(p.rules, dr.Name())
	}
	p.wins = drc.WindowGrid(p.die, 1000, 500)
	p.perTileWins = make([][]int, p.nx*p.ny)
	for wi, w := range p.wins {
		ti := int(w.X0/1000) + p.nx*int(w.Y0/1000)
		p.perTileWins[ti] = append(p.perTileWins[ti], wi)
	}
	return p
}

// fuzzStitchRules sort below, between and above metal2.density and
// metal3.density.
var fuzzStitchRules = []string{"metal1.space", "metal2.area", "metal2.width", "metal3.area", "metal3.z", "via1.space"}

// fuzzDensities are the values a window reads: repeats, zero of both
// signs (-0 renders "-0.000"), the bounds, and values out of range on
// both sides.
var fuzzDensities = []float64{0, math.Copysign(0, -1), 0.5, 0.1, 0.9, 0.05, 1, 0.2, 0.8, 0.35}

// stitchBytes reads a fuzz input as small choices; past its end every
// choice is 0.
type stitchBytes []byte

func (b *stitchBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	c := int((*b)[0]) % n
	*b = (*b)[1:]
	return c
}

// violations reads tile ti's list: up to 7 entries, each a rule, a
// marker inside the core or straddling one of its four seams (so the
// neighbour may report the same one), a layer and detail, and a run of
// 1 to 4 copies; then whether the list comes unsorted.
func (b *stitchBytes) violations(p *plan, ti int) []drc.Violation {
	core := p.core(ti)
	var vs []drc.Violation
	for n := b.next(8); n > 0; n-- {
		rule := fuzzStitchRules[b.next(len(fuzzStitchRules))]
		place, off := b.next(5), int64(b.next(4))*100
		var m geom.Rect
		switch place {
		case 0: // inside
			m = geom.R(core.X0+100+off, core.Y0+100, core.X0+150+off, core.Y0+150)
		case 1: // right seam
			m = geom.R(core.X1-5, core.Y0+off, core.X1+5, core.Y0+off+10)
		case 2: // left seam
			m = geom.R(core.X0-5, core.Y0+off, core.X0+5, core.Y0+off+10)
		case 3: // top seam
			m = geom.R(core.X0+off, core.Y1-5, core.X0+off+10, core.Y1+5)
		default: // bottom seam
			m = geom.R(core.X0+off, core.Y0-5, core.X0+off+10, core.Y0+5)
		}
		v := drc.Violation{Rule: rule, Layer: tech.Metal1 + tech.Layer(b.next(2)), Marker: m, Detail: []string{"a", "b"}[b.next(2)]}
		for k := 1 + b.next(4); k > 0; k-- {
			vs = append(vs, v)
		}
	}
	drc.SortViolations(vs)
	if b.next(4) == 0 {
		slices.Reverse(vs)
	}
	return vs
}

// densities reads the values of the windows tile ti owns, per rule.
func (b *stitchBytes) densities(p *plan, ti int) [][]float64 {
	dens := make([][]float64, len(p.densRules))
	for di := range dens {
		dens[di] = make([]float64, len(p.perTileWins[ti]))
		for j := range dens[di] {
			dens[di][j] = fuzzDensities[b.next(len(fuzzDensities))]
		}
	}
	return dens
}

// stitchSeed writes a fuzz input: each tile's entries (rule, place,
// offset, layer, detail, run-1), unsorted or not, then per tile whether
// it is recomputed and, if so, whether it keeps its output or reads a
// new list. Densities are left to the bytes past the end: every window
// reads 0.
type seedTile struct {
	entries  [][6]byte
	unsorted bool
}

func stitchSeed(first []seedTile, dirty []int, next map[int]seedTile) []byte {
	var out []byte
	tile := func(st seedTile) {
		out = append(out, byte(len(st.entries)))
		for _, e := range st.entries {
			out = append(out, e[:]...)
		}
		if st.unsorted {
			out = append(out, 0)
		} else {
			out = append(out, 1)
		}
	}
	for _, st := range first {
		tile(st)
	}
	for ti := range first {
		if !slices.Contains(dirty, ti) {
			out = append(out, 0)
			continue
		}
		out = append(out, 1)
		if st, ok := next[ti]; ok {
			out = append(out, 1)
			tile(st)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// FuzzStitch holds the stitch to the whole-chip oracle on random tile
// outputs — cross-tile duplicates at every seam, in-tile runs, unsorted
// lists, densities out of range on both sides — and a delta over a
// random set of recomputed tiles to a from-scratch stitch of the same
// outputs. Seeded with the cases of the tests above: the longest run
// kept over tiles, an unsorted list and a density violation among them;
// a seam violation whose recomputed run shrinks, vanishes, grows and
// matches the clean tile's.
func FuzzStitch(f *testing.F) {
	e := func(rule, place, off, run byte) [6]byte { return [6]byte{rule, place, off, 0, 0, run - 1} }
	f.Add(stitchSeed([]seedTile{
		{entries: [][6]byte{e(2, 1, 0, 2), e(1, 0, 0, 1)}, unsorted: true},
		{entries: [][6]byte{e(2, 2, 0, 1), e(2, 0, 1, 3)}},
		{entries: [][6]byte{e(2, 2, 0, 2), e(0, 0, 2, 1)}},
	}, nil, nil))
	for _, run := range []byte{0, 1, 2, 3, 4} {
		next := seedTile{}
		if run > 0 {
			next.entries = [][6]byte{e(3, 2, 0, run)}
		}
		f.Add(stitchSeed([]seedTile{
			{entries: [][6]byte{e(3, 1, 0, 2)}},
			{entries: [][6]byte{e(3, 2, 0, 3)}},
			{entries: [][6]byte{e(3, 0, 3, 1)}},
		}, []int{1}, map[int]seedTile{1: next}))
	}
	rnd := rand.New(rand.NewSource(1))
	for range 8 {
		b := make([]byte, 40+rnd.Intn(200))
		rnd.Read(b)
		f.Add(b)
	}
	p := fuzzStitchPlan() // only read by the stitch
	f.Fuzz(func(t *testing.T, data []byte) {
		in := stitchBytes(data)
		n := p.nx * p.ny
		outs := make([]*TileResult, n)
		for ti := range outs {
			outs[ti] = &TileResult{Violations: in.violations(p, ti)}
		}
		next := slices.Clone(outs)
		var dirty []int
		for ti := range next {
			if in.next(2) == 0 {
				continue
			}
			dirty = append(dirty, ti)
			if in.next(2) == 1 {
				next[ti] = &TileResult{Violations: in.violations(p, ti)}
			}
		}
		for ti := range outs {
			outs[ti].Dens = in.densities(p, ti)
		}
		for _, ti := range dirty {
			if next[ti] == outs[ti] { // kept its list; may still read new densities
				next[ti] = &TileResult{Violations: outs[ti].Violations}
			}
			next[ti].Dens = in.densities(p, ti)
		}

		got := newResult()
		p.stitchTiles(got, slices.Clone(outs), allTiles(n), nil)
		if want := p.stitchOracle(newResult(), outs); !Equivalent(got, want) {
			t.Fatalf("from scratch:\n got %v %v\nwant %v %v", got.Violations, got.ByRule, want.Violations, want.ByRule)
		}
		prev := snapshotOf(p, outs)
		// A spliced tile's output is the snapshot's, sorted as its stitch
		// left it (Snapshot.outs), never a list that came back unsorted.
		for ti := range next {
			if next[ti] == outs[ti] {
				next[ti] = prev.outs[ti]
			}
		}
		kept := slices.Clone(prev.st.viol)
		delta := newResult()
		p.stitchTiles(delta, slices.Clone(next), dirty, prev)
		want := newResult()
		p.stitchTiles(want, slices.Clone(next), allTiles(n), nil)
		if !Equivalent(delta, want) {
			t.Fatalf("delta over tiles %v:\n got %v %v\nwant %v %v", dirty, delta.Violations, delta.ByRule, want.Violations, want.ByRule)
		}
		if !Equivalent(want, p.stitchOracle(newResult(), next)) {
			t.Fatalf("from scratch after the edit differs from the oracle")
		}
		if !slices.Equal(prev.st.viol, kept) {
			t.Fatal("the delta wrote into the snapshot it was spliced from")
		}
	})
}

// allTiles is every tile of an n-tile grid, the dirty list of a
// from-scratch stitch.
func allTiles(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// BenchmarkStitch times the stitch alone on the 100k-rect signoff chip's
// 64 tile outputs (BenchmarkChipSignoff's pass): scratch merges them all
// with nothing retained, as Evaluate does; delta patches the chip's
// stitched state with one recomputed tile that lost a violation and
// moved a density value, as EvaluateDelta does after a small edit.
func BenchmarkStitch(b *testing.B) {
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, TargetRects: 100_000, Defects: 8})
	if err != nil {
		b.Fatal(err)
	}
	o := Opts{Tile: 24000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000}
	res, snap, err := EvaluateSnap(context.Background(), tt, NewExtractor(l.Top), o)
	if err != nil {
		b.Fatal(err)
	}
	p := snap.plan
	// The delta's tile: the fullest one, less its first violation and with
	// its first window reading a value no window read before.
	k := 0
	for i, out := range snap.outs {
		if len(out.Violations) > len(snap.outs[k].Violations) {
			k = i
		}
	}
	edited := *snap.outs[k]
	edited.Violations = edited.Violations[1:]
	edited.Dens = slices.Clone(edited.Dens)
	for di := range edited.Dens {
		if len(edited.Dens[di]) > 0 {
			edited.Dens[di] = slices.Clone(edited.Dens[di])
			edited.Dens[di][0] = 0.987654
		}
	}
	next := slices.Clone(snap.outs)
	next[k] = &edited
	b.Logf("%d tiles, %d violations, tile %d holds %d", len(snap.outs), len(res.Violations), k, len(snap.outs[k].Violations))
	for _, row := range []struct {
		name  string
		outs  []*TileResult
		dirty []int
		prev  *Snapshot
	}{
		{"scratch", snap.outs, allTiles(len(snap.outs)), nil},
		{"delta", next, []int{k}, snap},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.stitchTiles(newResult(), slices.Clone(row.outs), row.dirty, row.prev)
			}
		})
	}
}
