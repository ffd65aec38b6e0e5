package tiling

import (
	"slices"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/tech"
)

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
		pp.stitchTiles(res, perm)
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
	p.stitchTiles(res, []*TileResult{{}, {}})
	if res.Violations != nil {
		t.Fatalf("Violations = %#v, want nil", res.Violations)
	}
}
