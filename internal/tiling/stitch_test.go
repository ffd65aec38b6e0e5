package tiling

import (
	"slices"
	"testing"

	"repro/internal/drc"
	"repro/internal/fill"
	"repro/internal/geom"
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
	// Out-of-range density windows go through the rule's own formatter.
	for di, dr := range p.densRules {
		for wi, d := range densVals[di] {
			if d < dr.Min || d > dr.Max {
				runs = append(runs, run{dr.Violation(p.wins[wi], d), 1})
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
	if limit := p.opts.MaxViolations; limit > 0 && len(all) > limit {
		res.Dropped = len(all) - limit
		all = all[:limit:limit]
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
		res := newResult(Opts{})
		pp.stitchTiles(res, perm, []int{0, 1, 2}, nil)
		if oracle := newResult(Opts{}); !Equivalent(res, pp.stitchOracle(oracle, perm)) {
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
	res := newResult(Opts{})
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
	s.st = p.stitchTiles(newResult(p.opts), s.outs, dirty, nil)
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
		res := newResult(p.opts)
		st := p.stitchTiles(res, outs, []int{1}, prev)
		if !Equivalent(res, p.stitchOracle(newResult(p.opts), outs)) {
			t.Fatalf("tile 1 holds %d: delta stitch %v differs from the whole-chip oracle", tc.tile1, res.Violations)
		}
		if got := res.ByRule["r"]; got != tc.want+1 {
			t.Fatalf("tile 1 holds %d: ByRule[r] = %d, want %d seam + 1 far", tc.tile1, got, tc.want)
		}
		if st.seen-len(st.viol) != 2+tc.tile1+1-(tc.want+1) {
			t.Fatalf("tile 1 holds %d: seen %d, kept %d", tc.tile1, st.seen, len(st.viol))
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
		res := newResult(p.opts)
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
