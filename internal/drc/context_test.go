package drc_test

import (
	"slices"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// NewContext's one split of the shapes by layer, each layer then
// normalized, equals layout.ByLayer's split normalized: on a chip tile,
// and on shapes that reach the split's edges — a layer already in normal
// form, which Normalize hands back as it is, next to another in the
// backing array; a layer with no shapes; and a layer past
// tech.NumLayers, which the deck never reads but the context keeps.
func TestNewContextSplitsAsByLayer(t *testing.T) {
	tt := tech.N45()
	check := func(name string, shapes []layout.Shape) *drc.Context {
		t.Helper()
		ctx := drc.NewContext(tt, shapes)
		want := layout.ByLayer(shapes)
		if len(ctx.Layers) != len(want) {
			t.Fatalf("%s: %d layers, ByLayer has %d", name, len(ctx.Layers), len(want))
		}
		for l, rs := range want {
			if got, ok := ctx.Layers[l]; !ok || !slices.Equal(got, geom.Normalize(rs)) {
				t.Fatalf("%s: layer %v\n got %v\nwant %v", name, l, got, geom.Normalize(rs))
			}
		}
		return ctx
	}
	check("tile", chipTile(t, tt, 24000))

	far := tech.Layer(200)
	shapes := []layout.Shape{
		{Layer: tech.Via1, R: geom.R(0, 0, 60, 60)},
		{Layer: tech.Metal1, R: geom.R(0, 0, 100, 100)},
		{Layer: far, R: geom.R(5, 5, 10, 10)},
		{Layer: tech.Metal1, R: geom.R(200, 0, 300, 100)},
		{Layer: far, R: geom.R(0, 0, 8, 8)},
	}
	ctx := check("edges", shapes)
	m1, v1 := ctx.Layers[tech.Metal1], slices.Clone(ctx.Layers[tech.Via1])
	if !geom.IsNormal([]geom.Rect{shapes[1].R, shapes[3].R}) || len(m1) != 2 {
		t.Fatalf("metal1 %v: want the two rects already in normal form", m1)
	}
	_ = append(m1, geom.R(400, 0, 500, 100))
	if got := ctx.Layers[tech.Via1]; !slices.Equal(got, v1) {
		t.Fatalf("appending to metal1 moved via1: %v, was %v", got, v1)
	}
	if rs, ok := ctx.Layers[tech.Metal2]; ok {
		t.Fatalf("metal2 has no shapes, yet the context holds %v", rs)
	}
	if got := drc.StandardDeck(tt).Run(ctx); got.ByRule["via1.size.60"] != 0 {
		t.Fatalf("deck over the edge shapes: %v", got.ByRule)
	}
}
