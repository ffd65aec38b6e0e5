package drc

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Enclosure requires each cut on Via to be enclosed by Metal with at
// least End on two opposite sides and Side on the other two, in either
// orientation — the standard rectangular-enclosure via rule that lets
// minimum-width wires carry vias with end extensions.
type Enclosure struct {
	Via   tech.Layer
	Metal tech.Layer
	End   int64
	Side  int64
}

// Name implements Rule.
func (r Enclosure) Name() string {
	return fmt.Sprintf("%s.enc.%s.%d", r.Via, r.Metal, r.End)
}

// Check implements Rule.
func (r Enclosure) Check(ctx *Context) []Violation {
	metal := ctx.layer(r.Metal)
	covered := func(want geom.Rect) bool {
		return metal.ClipArea(want) == want.Area()
	}
	name := r.Name()
	detail := fmt.Sprintf("cut not enclosed by %s by %d/%d in either orientation", r.Metal, r.End, r.Side)
	var out []Violation
	for _, s := range ctx.Shapes {
		if s.Layer != r.Via {
			continue
		}
		if covered(s.R.BloatXY(r.End, r.Side)) || covered(s.R.BloatXY(r.Side, r.End)) {
			continue
		}
		out = append(out, Violation{
			Rule:   name,
			Layer:  r.Via,
			Marker: s.R,
			Detail: detail,
		})
	}
	return out
}

// MinArea requires every connected region on the layer to have at
// least A nm^2 of area (small islands detach or lift during etch/CMP).
type MinArea struct {
	Layer tech.Layer
	A     int64
}

// Name implements Rule.
func (r MinArea) Name() string { return fmt.Sprintf("%s.area.%d", r.Layer, r.A) }

// Check implements Rule.
func (r MinArea) Check(ctx *Context) []Violation {
	name := r.Name()
	ly := ctx.layer(r.Layer)
	var out []Violation
	for _, g := range ly.regions() {
		if g.Area < r.A {
			out = append(out, Violation{
				Rule:   name,
				Layer:  r.Layer,
				Marker: g.BBox,
				Detail: fmt.Sprintf("region area %d < %d", g.Area, r.A),
			})
		}
	}
	return out
}
