package tiling

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/layout"
	"repro/internal/tech"
)

// A repetitive floorplan (every slot the same macro, slot-aligned
// tiles) must share tile work: one miss per unique tile content, hits
// for every repeat. Interior tiles are all identical (36 of 64 on an
// 8x8 grid); edge tiles see the seal ring at distinct offsets and
// cannot share. The cached run must still be bit-identical to the
// uncached one, and a second evaluation through the same cache must
// hit on every non-empty tile.
func TestCacheHitRateAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("64-tile chip evaluation is slow; skipped in -short")
	}
	tt := tech.N45()
	top := chipTop(t, layout.ChipOpts{
		Seed: 9, Slots: 8, SlotPitch: 24000,
		MacroMix: []int{0, 0, 0, 1}, // all viafarm: maximally repetitive
	})
	o := Opts{Tile: 24000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true}

	plain, err := EvaluateChip(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}

	o.Cache = NewCache(0)
	ex := NewExtractor(top)
	cached, err := Evaluate(context.Background(), tt, ex, o)
	if err != nil {
		t.Fatalf("cached: %v", err)
	}
	diffResultsEqual(t, "cached vs uncached", cached, plain)

	st := cached.Stats
	if st.TileHits+st.TileMisses != int64(st.Tiles-st.EmptyTiles) {
		t.Fatalf("cache accounting: %d hits + %d misses != %d non-empty tiles",
			st.TileHits, st.TileMisses, st.Tiles-st.EmptyTiles)
	}
	rate := float64(st.TileHits) / float64(st.TileHits+st.TileMisses)
	if rate <= 0.5 {
		t.Fatalf("tile cache hit rate %.2f (%d/%d), want > 0.5 on the repetitive floorplan",
			rate, st.TileHits, st.TileHits+st.TileMisses)
	}

	// Second evaluation through the warm cache: pure replay.
	again, err := Evaluate(context.Background(), tt, ex, o)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	diffResultsEqual(t, "replay vs uncached", again, plain)
	if again.Stats.TileMisses != 0 {
		t.Fatalf("warm cache: %d misses, want 0", again.Stats.TileMisses)
	}
}

func diffResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Violations, b.Violations) ||
		!reflect.DeepEqual(a.ByRule, b.ByRule) ||
		a.Dropped != b.Dropped ||
		!reflect.DeepEqual(a.Hotspots, b.Hotspots) ||
		!reflect.DeepEqual(a.Density, b.Density) {
		t.Fatalf("%s: results differ", label)
	}
}
