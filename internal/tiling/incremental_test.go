package tiling

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/surrogate"
	"repro/internal/tech"
)

// editCell returns a copy of top sharing its instances, with the given
// top-level shapes removed (matched exactly by layer+rect+net; the
// test fails if one is absent) and the added shapes appended. The
// returned rects are the dirty region: every rect that differs between
// the two hierarchies.
func editCell(t *testing.T, top *layout.Cell, remove, add []layout.Shape) (*layout.Cell, []geom.Rect) {
	t.Helper()
	c := layout.NewCell(top.Name + "_edit")
	c.Insts = top.Insts
	c.Shapes = make([]layout.Shape, 0, len(top.Shapes)+len(add))
	pending := append([]layout.Shape(nil), remove...)
	var changed []geom.Rect
outer:
	for _, s := range top.Shapes {
		for i, r := range pending {
			if s == r {
				pending = append(pending[:i], pending[i+1:]...)
				changed = append(changed, s.R)
				continue outer
			}
		}
		c.Shapes = append(c.Shapes, s)
	}
	if len(pending) != 0 {
		t.Fatalf("editCell: %d shapes to remove not found: %+v", len(pending), pending)
	}
	for _, s := range add {
		c.Shapes = append(c.Shapes, s)
		changed = append(changed, s.R)
	}
	return c, changed
}

// defectShapes returns the two top-level metal2 rects of one injected
// spacing defect (the shapes touching its gap box).
func defectShapes(t *testing.T, top *layout.Cell, gap geom.Rect) []layout.Shape {
	t.Helper()
	var out []layout.Shape
	for _, s := range top.Shapes {
		if s.Layer == tech.Metal2 && touches(s.R, gap) {
			out = append(out, s)
		}
	}
	if len(out) != 2 {
		t.Fatalf("defect gap %v touched by %d top-level metal2 shapes, want 2", gap, len(out))
	}
	return out
}

// The headline incremental differential: on a generated chip with
// injected defects, EvaluateDelta after an edit must be bit-identical
// to a from-scratch evaluation of the edited chip — across two tile
// sizes, for a removal edit, and back again through a chained
// snapshot — while actually splicing (not recomputing) the tiles whose
// windows the edit cannot reach.
func TestDeltaMatchesFullChipGrid(t *testing.T) {
	tt := tech.N45()
	l, info, err := layout.GenerateChip(tt, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3,
		MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	top := l.Top
	if len(info.DefectBoxes) == 0 {
		t.Fatal("chip has no injected defects; differential is vacuous")
	}
	victim := defectShapes(t, top, info.DefectBoxes[0])

	for _, tile := range []int64{9000, 16000} {
		t.Run(fmt.Sprintf("tile=%d", tile), func(t *testing.T) {
			o := Opts{Tile: tile, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true}
			res0, snap, err := EvaluateSnap(context.Background(), tt, NewExtractor(top), o)
			if err != nil {
				t.Fatalf("EvaluateSnap: %v", err)
			}
			plain, err := EvaluateChip(context.Background(), tt, top, o)
			if err != nil {
				t.Fatalf("EvaluateChip: %v", err)
			}
			diffResults(t, "snap vs plain", res0, plain)
			before := res0.ByRule["metal2.space.70"]
			if before < 3 {
				t.Fatalf("expected >= 3 injected metal2.space violations, ByRule = %v", res0.ByRule)
			}

			// Edit 1: heal the first injected defect by removing its pair.
			edited, changed := editCell(t, top, victim, nil)
			resD, snap2, err := EvaluateDelta(context.Background(), tt, NewExtractor(edited), snap, changed)
			if err != nil {
				t.Fatalf("EvaluateDelta: %v", err)
			}
			fresh, err := EvaluateChip(context.Background(), tt, edited, o)
			if err != nil {
				t.Fatalf("EvaluateChip(edited): %v", err)
			}
			diffResults(t, "delta vs fresh", resD, fresh)
			if !Equivalent(resD, fresh) {
				t.Fatal("Equivalent(delta, fresh) = false")
			}
			if got := resD.ByRule["metal2.space.70"]; got != before-1 {
				t.Fatalf("healed defect: metal2.space.70 = %d, want %d", got, before-1)
			}
			if resD.Stats.SplicedTiles == 0 {
				t.Fatal("delta recomputed every tile; splice path not exercised")
			}
			snx, sny := snap.plan.nx, snap.plan.ny
			if want := snx*sny - len(snap.InvalidatedTiles(changed)); resD.Stats.SplicedTiles != want {
				t.Fatalf("SplicedTiles = %d, want tiles - invalidated = %d", resD.Stats.SplicedTiles, want)
			}

			// Edit 2, chained from the delta's snapshot: put the defect
			// back. The result must round-trip to the original.
			restored, changed2 := editCell(t, edited, nil, victim)
			resD2, _, err := EvaluateDelta(context.Background(), tt, NewExtractor(restored), snap2, changed2)
			if err != nil {
				t.Fatalf("EvaluateDelta(chained): %v", err)
			}
			diffResults(t, "chained delta vs original", resD2, res0)
		})
	}
}

// ints collects a want-slice for exact invalidation-set comparison.
func wantTiles(t *testing.T, label string, got []int, want ...int) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: invalidated = %v, want %v", label, got, want)
	}
}

// Satellite: the dirty-region invalidation geometry, pinned exactly.
// Deltas straddling tile seams invalidate both tiles, deltas in a
// halo-only zone invalidate the neighbor whose pad reaches them, and
// empty deltas invalidate nothing — asserted both against the pure
// predicate (Snapshot.InvalidatedTiles) and against what EvaluateDelta
// actually recomputes (Stats.SplicedTiles), which must agree.
func TestSnapshotInvalidationGeometry(t *testing.T) {
	tt := tech.N45()
	top := twoClusterCell()
	o := Opts{Tile: 8000, Halo: 2000, DRC: true}
	res0, snap, err := EvaluateSnap(context.Background(), tt, NewExtractor(top), o)
	if err != nil {
		t.Fatalf("EvaluateSnap: %v", err)
	}
	nx, ny := snap.plan.nx, snap.plan.ny
	if nx != 14 || ny != 2 {
		t.Fatalf("grid = %dx%d, want 14x2 (die %v)", nx, ny, snap.Die())
	}
	if snap.plan.pad != 2000 {
		t.Fatalf("pad = %d, want the DRC halo 2000", snap.plan.pad)
	}

	cases := []struct {
		name    string
		changed []geom.Rect
		want    []int
	}{
		{"empty delta", nil, nil},
		{"interior of tile 1", []geom.Rect{geom.R(11000, 3000, 11100, 3070)}, []int{1}},
		{"straddles the x=16000 seam", []geom.Rect{geom.R(15900, 3000, 16100, 3070)}, []int{1, 2}},
		{"halo-only: inside core 2, within pad of tile 1", []geom.Rect{geom.R(17000, 3000, 17100, 3070)}, []int{1, 2}},
		{"closed-interval: exactly on tile 1's padded edge", []geom.Rect{geom.R(18000, 3000, 18100, 3070)}, []int{1, 2}},
		{"one past the padded edge", []geom.Rect{geom.R(18001, 3000, 18100, 3070)}, []int{2}},
		// The second rect sits in the 2000nm-tall top row: it reaches
		// its own tile 27 and, through the pad, the row-0 tile below.
		{"two disjoint rects", []geom.Rect{geom.R(1000, 1000, 1100, 1070), geom.R(107000, 8500, 107100, 8570)}, []int{0, 13, 27}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := snap.InvalidatedTiles(tc.changed)
			wantTiles(t, "predicate", got, tc.want...)
			// The engine must recompute exactly the predicted set. The
			// hierarchy is unedited (a legal degenerate delta: the dirty
			// rects over-cover a no-op edit), so the result must also
			// still equal the original bit-for-bit.
			res, _, err := EvaluateDelta(context.Background(), tt, NewExtractor(top), snap, tc.changed)
			if err != nil {
				t.Fatalf("EvaluateDelta: %v", err)
			}
			if !Equivalent(res, res0) {
				t.Fatal("no-op delta changed the result")
			}
			if want := nx*ny - len(tc.want); res.Stats.SplicedTiles != want {
				t.Fatalf("SplicedTiles = %d, want %d (recompute exactly %v)",
					res.Stats.SplicedTiles, want, tc.want)
			}
		})
	}
}

// Incremental differential through the litho hotspot scan: an edit
// inside one scan window re-simulates only the windows whose padded
// extraction reaches it; the stitched hotspot list matches a fresh
// evaluation exactly, including the new defect's hotspot.
func TestDeltaMatchesFullHotspots(t *testing.T) {
	if testing.Short() {
		t.Skip("litho simulation differential is slow; skipped in -short")
	}
	tt := tech.N45()
	top := layout.NewCell("X_ICHIP")
	// Corner markers pin the metal1 bbox (and die) to 13000 x 13000 —
	// a 2x2 scan grid — so interior edits cannot move the grid anchor.
	top.Add(tech.Metal1, geom.R(0, 0, 500, 500))
	top.Add(tech.Metal1, geom.R(12500, 12500, 13000, 13000))
	top.Add(tech.Metal1, geom.R(0, 12500, 500, 13000))
	top.Add(tech.Metal1, geom.R(12500, 0, 13000, 500))
	// A clean line in window 3, far from the edit.
	top.Add(tech.Metal1, geom.R(12520, 12520, 12610, 12980))

	o := Opts{Tile: 8000, Halo: 2000, Hotspots: []tech.Layer{tech.Metal1}}
	res0, snap, err := EvaluateSnap(context.Background(), tt, NewExtractor(top), o)
	if err != nil {
		t.Fatalf("EvaluateSnap: %v", err)
	}
	if len(res0.Hotspots[tech.Metal1]) != 0 {
		t.Fatalf("clean chip reported hotspots: %v", res0.Hotspots[tech.Metal1])
	}

	// Edit: drop a 30nm drawn neck (a guaranteed printed pinch) into
	// the interior of window 0.
	neck := []layout.Shape{
		{Layer: tech.Metal1, R: geom.R(3000, 3000, 3090, 4000), Net: layout.NoNet},
		{Layer: tech.Metal1, R: geom.R(3030, 4000, 3060, 4200), Net: layout.NoNet},
		{Layer: tech.Metal1, R: geom.R(3000, 4200, 3090, 5200), Net: layout.NoNet},
	}
	edited, changed := editCell(t, top, nil, neck)
	resD, _, err := EvaluateDelta(context.Background(), tt, NewExtractor(edited), snap, changed)
	if err != nil {
		t.Fatalf("EvaluateDelta: %v", err)
	}
	fresh, err := EvaluateChip(context.Background(), tt, edited, o)
	if err != nil {
		t.Fatalf("EvaluateChip(edited): %v", err)
	}
	diffResults(t, "hotspot delta vs fresh", resD, fresh)
	if len(resD.Hotspots[tech.Metal1]) == 0 {
		t.Fatal("edit introduced no hotspot; differential is vacuous")
	}
	// The scan grid is 2x2 at pitch 12000 and the extraction pad is far
	// below the window size, so the edit reaches window 0 only.
	if resD.Stats.SplicedWindows != 3 {
		t.Fatalf("SplicedWindows = %d, want 3 of 4", resD.Stats.SplicedWindows)
	}
}

// The guards: edits that move grid anchors or change chip-global
// structure must refuse to splice, typed ErrFullRequired.
func TestEvaluateDeltaFullRequired(t *testing.T) {
	tt := tech.N45()
	ctx := context.Background()

	t.Run("nil snapshot", func(t *testing.T) {
		_, _, err := EvaluateDelta(ctx, tt, NewExtractor(layout.NewCell("X_E")), nil, nil)
		if err == nil {
			t.Fatal("want error")
		}
	})

	t.Run("empty-die snapshot", func(t *testing.T) {
		_, snap, err := EvaluateSnap(ctx, tt, NewExtractor(layout.NewCell("X_E")), Opts{Tile: 8000, DRC: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := EvaluateDelta(ctx, tt, NewExtractor(layout.NewCell("X_E")), snap, nil); !errors.Is(err, ErrFullRequired) {
			t.Fatalf("err = %v, want ErrFullRequired", err)
		}
	})

	t.Run("die bbox moved", func(t *testing.T) {
		top := layout.NewCell("X_D")
		top.Add(tech.Metal1, geom.R(0, 0, 3000, 3000))
		_, snap, err := EvaluateSnap(ctx, tt, NewExtractor(top), Opts{Tile: 8000, DRC: true})
		if err != nil {
			t.Fatal(err)
		}
		grown, changed := editCell(t, top, nil, []layout.Shape{
			{Layer: tech.Metal1, R: geom.R(5000, 5000, 5100, 5100), Net: layout.NoNet}})
		if _, _, err := EvaluateDelta(ctx, tt, NewExtractor(grown), snap, changed); !errors.Is(err, ErrFullRequired) {
			t.Fatalf("err = %v, want ErrFullRequired", err)
		}
	})

	t.Run("surrogate snapshot", func(t *testing.T) {
		prev := &Snapshot{plan: &plan{
			opts: withDefaults(tt, Opts{DRC: true, Surrogate: &surrogate.Config{Seed: 9, MinSample: 8}}),
			die:  geom.R(0, 0, 1000, 1000),
		}}
		top := layout.NewCell("X_S")
		top.Add(tech.Metal1, geom.R(0, 0, 1000, 1000))
		if _, _, err := EvaluateDelta(ctx, tt, NewExtractor(top), prev, nil); !errors.Is(err, ErrFullRequired) {
			t.Fatalf("err = %v, want ErrFullRequired", err)
		}
	})

	t.Run("density layer set changed", func(t *testing.T) {
		top := layout.NewCell("X_DL")
		top.Add(tech.Metal1, geom.R(0, 0, 3000, 3000))
		m2 := layout.Shape{Layer: tech.Metal2, R: geom.R(100, 100, 200, 200), Net: layout.NoNet}
		top.AddNet(m2.Layer, m2.R, m2.Net)
		o := Opts{Tile: 8000, Density: true, DensityWindow: 3000}
		_, snap, err := EvaluateSnap(ctx, tt, NewExtractor(top), o)
		if err != nil {
			t.Fatal(err)
		}
		// Removing the only metal2 shape drops metal2 from the enabled
		// density layer set (the die stays pinned by metal1).
		bare, changed := editCell(t, top, []layout.Shape{m2}, nil)
		if _, _, err := EvaluateDelta(ctx, tt, NewExtractor(bare), snap, changed); !errors.Is(err, ErrFullRequired) {
			t.Fatalf("err = %v, want ErrFullRequired", err)
		}
	})

	t.Run("hotspot layer bbox moved", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs a litho scan; skipped in -short")
		}
		top := layout.NewCell("X_HB")
		top.Add(tech.Metal2, geom.R(0, 0, 3000, 3000)) // pins the die
		top.Add(tech.Metal1, geom.R(0, 0, 90, 1000))
		_, snap, err := EvaluateSnap(ctx, tt, NewExtractor(top),
			Opts{Tile: 8000, Halo: 2000, Hotspots: []tech.Layer{tech.Metal1}})
		if err != nil {
			t.Fatal(err)
		}
		moved, changed := editCell(t, top, nil, []layout.Shape{
			{Layer: tech.Metal1, R: geom.R(0, 1500, 90, 2000), Net: layout.NoNet}})
		if _, _, err := EvaluateDelta(ctx, tt, NewExtractor(moved), snap, changed); !errors.Is(err, ErrFullRequired) {
			t.Fatalf("err = %v, want ErrFullRequired", err)
		}
	})
}
