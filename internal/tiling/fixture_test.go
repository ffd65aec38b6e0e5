package tiling

import (
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
)

// Hand-made units for the wire, key and validation tests: what the
// engine would cut for a tile or scan window at a given place on a chip,
// without building the chip. testPlan fills the template the way newPlan
// does (o is taken as given, not defaulted).

func testPlan(t *tech.Tech, o Opts, densLayers []tech.Layer) *plan {
	return &plan{tmpl: TileRequest{
		Schema: TileSchema, Tech: *t,
		DRC: o.DRC, Density: o.Density, DensityWindow: o.DensityWindow,
		DensityLayers: densLayers, Cond: litho.Nominal,
		Interior: o.HotspotInterior,
	}}
}

// tileWireRequest is the stage-A unit for core with the given chip-frame
// density windows and shapes, re-based to the core origin.
func tileWireRequest(t *tech.Tech, o Opts, densLayers []tech.Layer, core geom.Rect, pad int64, absWins []geom.Rect, shapes []layout.Shape) *TileRequest {
	d := geom.Pt(-core.X0, -core.Y0)
	r := testPlan(t, o, densLayers).tmpl
	r.Stage = StageTile
	r.CoreW, r.CoreH, r.Pad = core.Width(), core.Height(), pad
	r.Windows = make([]geom.Rect, len(absWins))
	for i, w := range absWins {
		r.Windows[i] = w.Translate(d)
	}
	r.Shapes = make([]layout.Shape, len(shapes))
	for i, s := range shapes {
		s.R = s.R.Translate(d)
		r.Shapes[i] = s
	}
	return &r
}

// windowWireRequest is the stage-B unit the engine's own windowUnit cuts
// for scan window win with chip-frame rects rs.
func windowWireRequest(t *tech.Tech, o Opts, densLayers []tech.Layer, layer tech.Layer, win geom.Rect, extPad int64, rs []geom.Rect) *TileRequest {
	return testPlan(t, o, densLayers).windowUnit(&scanPlan{layer: layer, extPad: extPad}, win, rs)
}
