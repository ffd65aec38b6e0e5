package drc

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// preparedLayer is what the rules derive from one layer's normalized
// rects, built on first use and then shared: the rects in banded form,
// whose walk finds what is near a box, the boundary edges split by
// interior side, each side a list sorted by line, and the connected
// regions. Rules run concurrently under RunCtx, so each part is built
// under a sync.Once and only read afterwards. The parts live until their
// Context is reset, and their arrays beyond it: reset starts the Onces
// afresh and keeps every array's capacity for the next shapes.
type preparedLayer struct {
	once sync.Once
	geom.Banded

	sideOnce sync.Once
	sides    [4][]geom.Seg // by geom.Side
	sideBuf  []geom.Seg    // the sides' backing

	regionOnce sync.Once
	regs       []geom.Region // in labels' arrays
	labels     geom.Labels

	norm []geom.Rect // the layer's normal form, when its shapes were not in it
}

// forget readies p for the layer of a Context's next shapes: nothing of
// it is built, and its arrays are kept to be written over.
func (p *preparedLayer) forget() {
	p.once, p.sideOnce, p.regionOnce = sync.Once{}, sync.Once{}, sync.Once{}
}

// layer returns the prepared form of ctx.Layers[l].
func (c *Context) layer(l tech.Layer) *preparedLayer {
	p := &c.prep[l]
	p.once.Do(func() { p.Reset(c.Layers[l]) })
	return p
}

// gateLayer returns the prepared gates, poly over diff, intersected into
// the layer's own buffer like a layer's normal form.
func (c *Context) gateLayer() *preparedLayer {
	p := &c.gates
	p.once.Do(func() {
		p.norm = geom.AppendIntersect(p.norm[:0], c.Layers[tech.Poly], c.Layers[tech.Diff])
		p.Reset(p.norm)
	})
	return p
}

// boundary returns the layer's boundary edges by interior side, indexed
// by geom.Side. Each side is in (At, Lo) order and its edges on one line
// are disjoint, as geom.BoundarySides returns them.
func (p *preparedLayer) boundary() *[4][]geom.Seg {
	p.sideOnce.Do(func() { p.sides, p.sideBuf = geom.AppendBoundarySides(p.sideBuf[:0], p.Rects()) })
	return &p.sides
}

// regions returns the layer's connected regions measured: each one's
// area and bounding box, numbered as geom.Banded.Components numbers them.
func (p *preparedLayer) regions() []geom.Region {
	p.regionOnce.Do(func() { p.regs = p.labels.Regions(&p.Banded) })
	return p.regs
}

// coversPoint is geom.CoversPoint(p.Rects(), pt).
func (p *preparedLayer) coversPoint(pt geom.Point) bool {
	hit := false
	p.Near(geom.Rect{X0: pt.X, Y0: pt.Y, X1: pt.X, Y1: pt.Y}, func(int, geom.Rect) {
		hit = true
	})
	return hit
}

// touching returns the layer's rects that intersect or touch q, in
// layer order: all of the layer a boolean op confined to q can see.
func (p *preparedLayer) touching(q geom.Rect) []geom.Rect {
	var out []geom.Rect
	p.Near(q, func(_ int, r geom.Rect) {
		out = append(out, r)
	})
	return out
}
