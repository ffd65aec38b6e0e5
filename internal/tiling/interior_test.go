package tiling

import (
	"context"
	"testing"

	"repro/internal/layout"
	"repro/internal/tech"
)

// interiorChip generates a via-farm chip whose only metal1 hotspots are
// the generator's injected defects, with options that scan it under
// the interior filter in a handful of windows.
func interiorChip(t *testing.T) (*layout.Cell, layout.ChipInfo, Opts) {
	t.Helper()
	// Via-chain macros only: clean on metal1 once line-end pull-back
	// markers are filtered, so the injected defects are what there is
	// to find.
	l, info, err := layout.GenerateChip(tech.N45(), layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, HotspotDefects: 2,
		MacroMix: []int{0, 0, 0, 1},
	})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	if len(info.HotspotSites) != 2 {
		t.Fatalf("injected %d defect sites, want 2", len(info.HotspotSites))
	}
	o := defaultOpts()
	o.Tile, o.Halo = 9000, 2000
	o.Density = false
	o.HotspotInterior = true
	o.Workers = 4
	return l.Top, info, o
}

// checkSites fails unless every injected defect site overlaps a
// reported hotspot on its layer.
func checkSites(t *testing.T, label string, info layout.ChipInfo, res *Result) {
	t.Helper()
	for _, site := range info.HotspotSites {
		found := false
		for _, h := range res.Hotspots[site.Layer] {
			if h.Box.Overlaps(site.Box) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: injected %s defect at %v not found; hotspots: %v",
				label, site.Kind, site.Box, res.Hotspots[site.Layer])
		}
	}
}

// The interior-filtered scan, flat against tiled: both engines must
// agree exactly and each must report every injected defect.
func TestTiledMatchesFlatInterior(t *testing.T) {
	if testing.Short() {
		t.Skip("litho simulation differential is slow; skipped in -short")
	}
	tt := tech.N45()
	top, info, o := interiorChip(t)

	flat, err := EvaluateFlat(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateFlat: %v", err)
	}
	tiled, err := EvaluateChip(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateChip: %v", err)
	}
	diffResults(t, "interior tiled", tiled, flat)
	if !Equivalent(tiled, flat) {
		t.Error("Equivalent(tiled, flat) = false")
	}
	checkSites(t, "flat", info, flat)
	checkSites(t, "tiled", info, tiled)
}

// The interior-filtered scan over the wire: a loopback DistEvaluate
// must match the flat oracle exactly, report every injected defect,
// and have sent its scan windows through the client.
func TestDistEvaluateInterior(t *testing.T) {
	if testing.Short() {
		t.Skip("litho simulation differential is slow; skipped in -short")
	}
	tt := tech.N45()
	top, info, o := interiorChip(t)

	flat, err := EvaluateFlat(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateFlat: %v", err)
	}
	lb := &loopback{}
	dist, err := DistEvaluate(context.Background(), tt, NewExtractor(top), o, lb)
	if err != nil {
		t.Fatalf("DistEvaluate: %v", err)
	}
	diffResults(t, "interior distributed", dist, flat)
	if !Equivalent(dist, flat) {
		t.Error("Equivalent(distributed, flat) = false")
	}
	checkSites(t, "distributed", info, dist)
	if lb.windows.Load() == 0 {
		t.Error("no scan window reached the loopback; the distributed arm is vacuous")
	}
}
