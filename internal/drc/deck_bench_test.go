package drc_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// chipTile extracts one halo-padded tile of the given core size from a
// generated chip — the unit of work the tiled engine hands the deck.
// The tile starts at slot (2,2) of 4x4, where the seed-11 floorplan
// puts violating SRAM and via-farm content next to logic.
func chipTile(b testing.TB, t *tech.Tech, size int64) []layout.Shape {
	b.Helper()
	l, info, err := layout.GenerateChip(t, layout.ChipOpts{Seed: 11, Slots: 4})
	if err != nil {
		b.Fatal(err)
	}
	x0, y0 := info.Die.X0+2*info.SlotPitch, info.Die.Y0+2*info.SlotPitch
	core := geom.R(x0, y0, x0+size, y0+size)
	shapes := tiling.NewExtractor(l.Top).AppendShapes(core.Bloat(2000), nil)
	if len(shapes) == 0 {
		b.Fatal("empty tile")
	}
	return shapes
}

// BenchmarkDeckTile runs the standard deck on one tile at three tile
// sizes, Context construction included. The figure to watch is
// ns/rect: a deck whose rules cost what the geometry near each check
// costs holds it flat as the tile grows; one that sweeps the whole
// layer per gate or per edge coordinate grows with tile area. The
// reused row is what a tile worker does: one Context reset onto the
// three tiles in turn, one iteration checking all three; its B/op
// against the sum of the three rows' is what the reset keeps.
func BenchmarkDeckTile(b *testing.B) {
	t := tech.N45()
	deck := drc.StandardDeck(t)
	var tiles [][]layout.Shape
	for _, size := range []int64{12000, 24000, 48000} {
		shapes := chipTile(b, t, size)
		tiles = append(tiles, shapes)
		b.Run(fmt.Sprintf("tile%d", size), func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n = deck.RunCtx(context.Background(), drc.NewContext(t, shapes), 1).Count()
			}
			if n == 0 {
				b.Fatal("deck found nothing")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(shapes)), "ns/rect")
			b.ReportMetric(float64(len(shapes)), "rects")
		})
	}
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var ctx drc.Context
		n := 0
		for i := 0; i < b.N; i++ {
			for _, shapes := range tiles {
				ctx.Reset(t, shapes)
				n += deck.RunCtx(context.Background(), &ctx, 1).Count()
			}
		}
		if n == 0 {
			b.Fatal("deck found nothing")
		}
	})
}

// BenchmarkEndcap is the gate-endcap rule alone on a 24000 tile, in one
// Context reset per run, as a tile worker keeps one: preparing the poly,
// diff and gate layers is part of what the rule costs a tile, in the
// arrays the run before left.
func BenchmarkEndcap(b *testing.B) {
	t := tech.N45()
	shapes := chipTile(b, t, 24000)
	if ctx := drc.NewContext(t, shapes); len(geom.Intersect(ctx.Layers[tech.Poly], ctx.Layers[tech.Diff])) == 0 {
		b.Fatal("tile has no gates")
	}
	rule := drc.Endcap{Ext: 100}
	b.ReportAllocs()
	var ctx drc.Context
	for i := 0; i < b.N; i++ {
		ctx.Reset(t, shapes)
		benchSink = len(rule.Check(&ctx))
	}
}

var benchSink int
