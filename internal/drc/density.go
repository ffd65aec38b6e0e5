package drc

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// DensityWindow checks that the layer's pattern density inside every
// Window x Window box of a stepped grid stays within [Min, Max]. CMP
// dishing/erosion is driven by density gradients, which is why fabs
// constrain it; the fill package exists to repair violations this rule
// finds.
type DensityWindow struct {
	Layer  tech.Layer
	Window int64
	Min    float64
	Max    float64
}

// Name implements Rule.
func (r DensityWindow) Name() string { return fmt.Sprintf("%s.density", r.Layer) }

// Check implements Rule.
func (r DensityWindow) Check(ctx *Context) []Violation {
	if len(ctx.Layers[r.Layer]) == 0 {
		return nil
	}
	// Window the full layout extent, not just this layer, so sparse
	// layers fail their min-density floor as they should.
	var extent geom.Rect
	for _, lrs := range ctx.Layers {
		extent = extent.Union(geom.BBoxOf(lrs))
	}
	var out []Violation
	render := r.Renderer()
	for _, w := range WindowGrid(extent, r.Window, r.Window/2) {
		if d := ctx.DensityIn(r.Layer, w); r.OutOfRange(d) {
			out = append(out, render.Violation(w, d))
		}
	}
	return out
}

// OutOfRange reports whether measured density d violates the rule.
func (r DensityWindow) OutOfRange(d float64) bool { return d < r.Min || d > r.Max }

// Violation builds the violation this rule reports for window w at
// measured density d. Exported so the tiled evaluator
// (internal/tiling), which computes window densities from per-tile
// extractions, emits byte-identical violations to a flat run.
func (r DensityWindow) Violation(w geom.Rect, d float64) Violation {
	return Violation{
		Rule:   r.Name(),
		Layer:  r.Layer,
		Marker: w,
		Detail: fmt.Sprintf("density %.3f outside [%.2f, %.2f]", d, r.Min, r.Max),
	}
}

// DensityRenderer builds one rule's violations for many windows,
// running the formatter once per distinct measured density: a chip has
// tens of thousands of out-of-range windows and a few hundred distinct
// values among them (areas are integer ratios of a fixed window), and
// the %.3f rendering is most of what a violation costs to build. Every
// string comes from DensityWindow.Violation, so a shared Detail is
// byte-identical to a freshly formatted one. Not safe for concurrent
// use; make one per rule per pass.
type DensityRenderer struct {
	rule DensityWindow
	seen map[uint64]Violation // by math.Float64bits(d); the Marker is per call
}

// Renderer returns an empty renderer for r.
func (r DensityWindow) Renderer() *DensityRenderer {
	return &DensityRenderer{rule: r, seen: make(map[uint64]Violation)}
}

// Violation equals rule.Violation(w, d).
func (dr *DensityRenderer) Violation(w geom.Rect, d float64) Violation {
	// Keyed by bit pattern, not value: -0 equals 0 but renders "-0.000".
	key := math.Float64bits(d)
	v, ok := dr.seen[key]
	if !ok {
		v = dr.rule.Violation(geom.Rect{}, d)
		dr.seen[key] = v
	}
	v.Marker = w
	return v
}

// WindowGrid tiles the extent with window-sized boxes stepped by step
// (overlapping when step < window, as foundry density rules specify).
// Windows are clipped to the extent; tiny clipped remainders (under a
// half window) are merged into their neighbor rather than emitted.
func WindowGrid(extent geom.Rect, window, step int64) []geom.Rect {
	if extent.Empty() || window <= 0 || step <= 0 {
		return nil
	}
	var out []geom.Rect
	for y := extent.Y0; y < extent.Y1; y += step {
		y1 := y + window
		if y1 > extent.Y1 {
			y1 = extent.Y1
		}
		for x := extent.X0; x < extent.X1; x += step {
			x1 := x + window
			if x1 > extent.X1 {
				x1 = extent.X1
			}
			w := geom.R(x, y, x1, y1)
			if w.Width() < window/2 || w.Height() < window/2 {
				continue
			}
			out = append(out, w)
		}
	}
	return out
}

// DensityIn returns the fraction of the window covered by the rect
// set. Normalized input is measured with a zero-allocation clipped
// scan (geom.ClipArea); the per-window boolean op this used to run
// dominated the fill-analysis profile.
func DensityIn(rs []geom.Rect, window geom.Rect) float64 {
	if window.Empty() {
		return 0
	}
	return float64(geom.ClipArea(rs, window)) / float64(window.Area())
}

// DensityIn is DensityIn(c.Layers[l], window) at the cost of the rects
// near the window, found by the layer's band walk: the same integer area
// over the same window area, so the same float bit for bit.
func (c *Context) DensityIn(l tech.Layer, window geom.Rect) float64 {
	if window.Empty() {
		return 0
	}
	return float64(c.layer(l).ClipArea(window)) / float64(window.Area())
}

// Endcap requires poly gates to extend at least Ext past the diffusion
// edge (insufficient endcap causes leaky corner devices). The demand
// region is the gate dilated by Ext minus the diffusion; it must be
// covered by poly.
type Endcap struct {
	Ext int64
}

// Name implements Rule.
func (r Endcap) Name() string { return fmt.Sprintf("poly.endcap.%d", r.Ext) }

// Check implements Rule.
func (r Endcap) Check(ctx *Context) []Violation {
	poly, diff := ctx.layer(tech.Poly), ctx.layer(tech.Diff)
	if len(poly.Rects()) == 0 || len(diff.Rects()) == 0 {
		return nil
	}
	name, detail := r.Name(), fmt.Sprintf("gate endcap < %d", r.Ext)
	gates := new(preparedLayer)
	gates.Reset(geom.Intersect(poly.Rects(), diff.Rects()))
	var out []Violation
	for _, g := range gates.Components() {
		bb := geom.BBoxOf(g)
		// The endcap is only required in the gate's transit direction
		// (where poly crosses the diff edge); the perpendicular sides
		// are source/drain extension, governed by diff rules. Probe
		// just past the gate bbox to find which way the poly runs.
		mx := (bb.X0 + bb.X1) / 2
		vertical := poly.coversPoint(geom.Pt(mx, bb.Y1+1)) ||
			poly.coversPoint(geom.Pt(mx, bb.Y0-1))
		band := bb.BloatXY(r.Ext, 0)
		if vertical {
			band = bb.BloatXY(0, r.Ext)
		}
		// Ask before building anything. The demand region lies inside the
		// band and what is missing lies outside diff and poly, so a band
		// wholly under the two has nothing missing; and it is wholly under
		// them when their areas inside it, less the area counted twice
		// (poly over diff is the gates), add up to the band's own. That
		// is every gate of a chip whose endcaps are drawn to rule.
		cEndcapAsked.Inc()
		if diff.ClipArea(band)+poly.ClipArea(band)-gates.ClipArea(band) == band.Area() {
			continue
		}
		cEndcapBuilt.Inc()
		// Only the diff and poly that reach the band can cover any of
		// the demand region.
		demand := geom.Subtract(geom.Intersect(geom.Dilate(g, r.Ext), []geom.Rect{band}), diff.touching(band))
		missing := geom.Subtract(demand, poly.touching(band))
		if geom.AreaOf(missing) > 0 {
			out = append(out, Violation{
				Rule:   name,
				Layer:  tech.Poly,
				Marker: geom.BBoxOf(missing),
				Detail: detail,
			})
		}
	}
	return out
}

// How often the endcap rule had to build a gate's demand region
// (Dilate, Intersect, two Subtracts) out of the gates it asked about.
var (
	cEndcapAsked = obs.C("drc.endcap.gates.asked")
	cEndcapBuilt = obs.C("drc.endcap.gates.built")
)
