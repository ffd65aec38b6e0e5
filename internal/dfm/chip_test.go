package dfm

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// loopback is a TileClient that executes each unit with the one
// executor a dfmd node runs, in process, and counts the units.
type loopback struct{ units atomic.Int64 }

func (lb *loopback) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	lb.units.Add(1)
	res, err := tiling.ExecuteTile(ctx, req)
	return res, tiling.TileServed{}, err
}

// TestEvalChipTiling runs the full-chip evaluation dfmscore -chip runs,
// on a 2x2-slot chip with injected litho defects and the metal1 scan:
// the tiled result matches the flat twin, every injected defect is
// found, and the same chip through a TileClient reports the same.
func TestEvalChipTiling(t *testing.T) {
	tt := tech.N45()
	o := ChipEvalOpts{
		Chip: layout.ChipOpts{Seed: 3, Slots: 2, SlotPitch: 15000, HotspotDefects: 2, MacroMix: []int{0, 1, 1, 1}},
		Tiling: tiling.Opts{Tile: 9000, Halo: 2000, Workers: 2, DRC: true, Density: true, DensityWindow: 3000,
			Hotspots: []tech.Layer{tech.Metal1}},
		CompareFlat: true,
	}
	rep, res, err := EvalChipTiling(context.Background(), tt, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatal("the tiled result differs from the flat one")
	}
	t.Logf("%d tiles, %d violations, %d hotspots, %d of %d injected defects found",
		rep.Stats.Tiles, rep.Violations, rep.Hotspots, rep.DefectsFound, rep.DefectSites)
	if rep.DefectSites == 0 || rep.DefectsFound != rep.DefectSites {
		t.Errorf("found %d of %d injected litho defects", rep.DefectsFound, rep.DefectSites)
	}
	if rep.Stats.Tiles == 0 || rep.Hotspots == 0 || rep.PeakHeapTiled == 0 || rep.PeakHeapFlat == 0 {
		t.Errorf("a report with nothing in it: %+v", rep)
	}

	lb := &loopback{}
	o.Remote, o.CompareFlat = lb, false
	remote, remoteRes, err := EvalChipTiling(context.Background(), tt, o)
	if err != nil {
		t.Fatal(err)
	}
	if lb.units.Load() == 0 {
		t.Fatal("no unit went through the client")
	}
	if !tiling.Equivalent(res, remoteRes) || remote.DefectsFound != remote.DefectSites || remote.Hotspots != rep.Hotspots {
		t.Errorf("through the client: %d of %d defects, %d hotspots; in process: %d hotspots",
			remote.DefectsFound, remote.DefectSites, remote.Hotspots, rep.Hotspots)
	}
}
