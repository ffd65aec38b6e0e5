package tiling

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/surrogate"
	"repro/internal/tech"
)

// surrChip generates a small chip with injected litho defects and
// returns it with its defect sites.
func surrChip(t *testing.T) (*layout.Cell, layout.ChipInfo) {
	t.Helper()
	// Via-chain macros only: clean on metal1, so the only hotspots are
	// the injected defects and the gate has clean windows to skip.
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
	return l.Top, info
}

// surrOpts is a gating config sized for a handful of scan windows, so
// the sample, holdout, and gate decisions are all non-vacuous on a
// small test chip.
func surrOpts() Opts {
	o := DefaultOpts()
	o.Tile, o.Halo = 9000, 2000
	o.Density = false
	o.HotspotInterior = true
	o.Surrogate = &surrogate.Config{Seed: 5, SampleFrac: 0.3, MinSample: 4}
	return o
}

// checkSites fails unless every injected defect site overlaps a
// reported hotspot on its layer — the recall-1.0 safety property of
// the gated scan.
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

// The gated differential: the surrogate fast path must reproduce the
// flat oracle's hotspot set exactly — identical gate decisions on
// both engines — and never lose an injected defect.
func TestTiledMatchesFlatSurrogate(t *testing.T) {
	if testing.Short() {
		t.Skip("litho simulation differential is slow; skipped in -short")
	}
	tt := tech.N45()
	top, info := surrChip(t)
	o := surrOpts()

	flat, err := EvaluateFlat(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateFlat: %v", err)
	}
	tiled, err := EvaluateChip(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("EvaluateChip: %v", err)
	}
	diffResults(t, "surrogate", tiled, flat)
	if !Equivalent(tiled, flat) {
		t.Error("Equivalent(tiled, flat) = false")
	}
	checkSites(t, "tiled", info, tiled)
	checkSites(t, "flat", info, flat)

	// The calibration reports must agree too: same windows, same
	// sample, same training set, same gate decisions.
	if !reflect.DeepEqual(tiled.Surrogate, flat.Surrogate) {
		t.Fatalf("surrogate reports differ:\n  tiled: %+v\n  flat:  %+v",
			tiled.Surrogate[tech.Metal1], flat.Surrogate[tech.Metal1])
	}
	rep := tiled.Surrogate[tech.Metal1]
	if rep == nil {
		t.Fatal("no surrogate report for metal1")
	}
	if rep.Sampled == 0 {
		t.Fatal("gate trained on zero sampled windows; differential is vacuous")
	}
	if rep.Sampled+rep.Skipped+rep.Exact != rep.NonEmpty {
		t.Fatalf("window accounting broken: sampled %d + skipped %d + exact %d != non-empty %d",
			rep.Sampled, rep.Skipped, rep.Exact, rep.NonEmpty)
	}

	// The gate must pay for itself on this chip: at least one window
	// skipped, or the fast path is dead weight.
	if rep.Skipped == 0 {
		t.Error("surrogate skipped zero windows on a mostly-clean chip")
	}
}

// The gated scan over the wire: DistEvaluate with a surrogate config
// must match the local gated run exactly — the gate runs on the
// submitter, only fall-through windows travel.
func TestDistEvaluateSurrogate(t *testing.T) {
	if testing.Short() {
		t.Skip("litho simulation differential is slow; skipped in -short")
	}
	tt := tech.N45()
	top, info := surrChip(t)
	o := surrOpts()
	o.Workers = 4

	local, err := Evaluate(context.Background(), tt, NewExtractor(top), o)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	lb := &loopback{}
	dist, err := DistEvaluate(context.Background(), tt, NewExtractor(top), o, lb)
	if err != nil {
		t.Fatalf("DistEvaluate: %v", err)
	}
	diffResults(t, "distributed surrogate", dist, local)
	if !reflect.DeepEqual(dist.Surrogate, local.Surrogate) {
		t.Fatalf("surrogate reports differ over the wire:\n  dist:  %+v\n  local: %+v",
			dist.Surrogate[tech.Metal1], local.Surrogate[tech.Metal1])
	}
	checkSites(t, "distributed", info, dist)

	// Skipped windows must never hit the wire: remote window count is
	// exactly the sampled + fall-through exact simulations.
	rep := dist.Surrogate[tech.Metal1]
	if want := int64(rep.Sampled + rep.Exact); lb.windows.Load() != want {
		t.Errorf("loopback served %d windows, want sampled+exact = %d", lb.windows.Load(), want)
	}
	if rep.Skipped == 0 {
		t.Error("surrogate skipped zero windows; wire test is vacuous")
	}
}

// The interior flag and the surrogate config are part of the content
// address: runs with different gating must never share cached results.
func TestKeyVariesWithSurrogateConfig(t *testing.T) {
	tt := tech.N45()
	rects := []geom.Rect{geom.R(10, 10, 100, 2000)}
	win := geom.R(0, 0, 12000, 12000)
	key := func(o Opts) [32]byte {
		t.Helper()
		k, err := windowWireRequest(tt, o, nil, tech.Metal1, win, 500, rects).Key()
		if err != nil {
			t.Fatalf("Key: %v", err)
		}
		return k
	}
	base := Opts{DRC: true}
	interior := base
	interior.HotspotInterior = true
	gatedA := interior
	gatedA.Surrogate = &surrogate.Config{Seed: 1}
	gatedB := interior
	gatedB.Surrogate = &surrogate.Config{Seed: 2}
	gatedA2 := interior
	gatedA2.Surrogate = &surrogate.Config{Seed: 1}

	if key(base) == key(interior) {
		t.Error("interior flag does not change the content address")
	}
	if key(interior) == key(gatedA) {
		t.Error("surrogate config does not change the content address")
	}
	if key(gatedA) == key(gatedB) {
		t.Error("different surrogate seeds share a content address")
	}
	if key(gatedA) != key(gatedA2) {
		t.Error("identical surrogate configs hash differently")
	}
}

func jsonRoundTrip(t *testing.T, req *TileRequest) *TileRequest {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back TileRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return &back
}

// A surrogate config on the wire request must survive JSON and keep
// its key, like every other request field.
func TestTileRequestSurrogateSurvivesJSON(t *testing.T) {
	tt := tech.N45()
	o := Opts{DRC: true, HotspotInterior: true, Surrogate: &surrogate.Config{Seed: 9, MinSample: 8}}
	req := windowWireRequest(tt, o, nil, tech.Metal1, geom.R(0, 0, 12000, 12000), 500,
		[]geom.Rect{geom.R(0, 0, 90, 1000)})
	if err := req.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	k0, err := req.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	back := jsonRoundTrip(t, req)
	if back.Surrogate == nil || *back.Surrogate != *req.Surrogate || back.Interior != req.Interior {
		t.Fatalf("wire round-trip lost gating config: %+v", back)
	}
	k1, err := back.Key()
	if err != nil {
		t.Fatalf("Key(round-trip): %v", err)
	}
	if k0 != k1 {
		t.Error("JSON round-trip changed the content address")
	}
}
