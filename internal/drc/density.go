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
	return Violation{Rule: r.Name(), Layer: r.Layer, Marker: w, Detail: r.detail(d)}
}

func (r DensityWindow) detail(d float64) string {
	return fmt.Sprintf("density %.3f outside [%.2f, %.2f]", d, r.Min, r.Max)
}

// DensityRenderer builds one rule's violations for many windows,
// running the formatter once per distinct measured density: a chip has
// tens of thousands of out-of-range windows and a few hundred distinct
// values among them (areas are integer ratios of a fixed window), and
// the %.3f rendering is most of what a violation costs to build. Most
// windows of a layer read what the window before them read (an empty
// window reads 0), so the previous call's value is asked before the map.
// The rule's name is formatted once and every Detail by the formatter
// DensityWindow.Violation uses, so a shared string is byte-identical to
// a freshly formatted one. Not safe for concurrent use; make one per rule
// per pass.
type DensityRenderer struct {
	rule DensityWindow
	name string
	seen map[uint64]Violation // by math.Float64bits(d); the Marker is per call
	// last is the previous call's violation, lastKey its value's bits;
	// last.Rule is empty before the first call.
	last    Violation
	lastKey uint64
}

// Renderer returns an empty renderer for r.
func (r DensityWindow) Renderer() *DensityRenderer {
	return &DensityRenderer{rule: r, name: r.Name(), seen: make(map[uint64]Violation)}
}

// Violation equals rule.Violation(w, d).
func (dr *DensityRenderer) Violation(w geom.Rect, d float64) Violation {
	// Keyed by bit pattern, not value: -0 equals 0 but renders "-0.000".
	if key := math.Float64bits(d); key != dr.lastKey || dr.last.Rule == "" {
		dr.lookup(key, d)
	}
	v := dr.last
	v.Marker = w
	return v
}

// lookup makes the violation for value d, whose bits are key, the last
// one: from the map, or formatted and added to it.
func (dr *DensityRenderer) lookup(key uint64, d float64) {
	v, ok := dr.seen[key]
	if !ok {
		v = Violation{Rule: dr.name, Layer: dr.rule.Layer, Detail: dr.rule.detail(d)}
		dr.seen[key] = v
	}
	dr.last, dr.lastKey = v, key
}

// WindowGrid tiles the extent with window-sized boxes stepped by step
// (overlapping when step < window, as foundry density rules specify),
// row by row from the lower-left corner. Windows are clipped to the
// extent, and a clipped remainder under half a window in either
// dimension is dropped: when step is at most half a window, as every
// caller passes, the window one step back already reaches that edge.
// The window count is arithmetic, so the slice is sized once.
func WindowGrid(extent geom.Rect, window, step int64) []geom.Rect {
	if extent.Empty() || window <= 0 || step <= 0 {
		return nil
	}
	// The offsets kept along a side of length n are 0, step, ... up to
	// the last one below n that leaves at least half a window.
	count := func(n int64) int {
		last := min(n-window/2, n-1)
		if last < 0 {
			return 0
		}
		return int(last/step) + 1
	}
	nx, ny := count(extent.Width()), count(extent.Height())
	if nx == 0 || ny == 0 {
		return nil
	}
	out := make([]geom.Rect, 0, nx*ny)
	for iy := range ny {
		y := extent.Y0 + int64(iy)*step
		y1 := min(y+window, extent.Y1)
		for ix := range nx {
			x := extent.X0 + int64(ix)*step
			out = append(out, geom.R(x, y, min(x+window, extent.X1), y1))
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
	gates := ctx.gateLayer()
	var out []Violation
	var comp []geom.Rect // the gate's rects, gathered only to build its demand region
	for c, g := range gates.regions() {
		bb := g.BBox
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
		comp = gates.labels.AppendComponent(comp[:0], &gates.Banded, c)
		demand := geom.Subtract(geom.Intersect(geom.Dilate(comp, r.Ext), []geom.Rect{band}), diff.touching(band))
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
