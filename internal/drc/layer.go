package drc

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// layerCell is the bin size of the per-layer indexes. Every query the
// deck makes is a few design-rule distances across (an edge's search
// strip, a rect bloated by a spacing, a via's enclosure box), so a
// handful of minimum pitches per bin keeps both the bins a query
// touches and the items per bin small. Measured on generated tiles
// (BenchmarkDeckTile), with an empty bin of a frozen index at 4 bytes:
// 512 lays four times the bins for a fifth more bytes and a tenth more
// time on a sparse 48 µm tile and nothing resolvable on the smaller
// ones, 2048 and up slow every size by a third or more (the dense-comb
// scans).
const layerCell = 1024

// preparedLayer is what the rules derive from one layer's normalized
// rects, built on first use and then shared: one spatial index over the
// rects, and the boundary edges with an index over their bounding
// boxes. Rules run concurrently under RunCtx, so each part is built
// under a sync.Once and only read afterwards; it lives exactly as long
// as its Context.
type preparedLayer struct {
	once  sync.Once
	rects []geom.Rect // normalized; item ids of ix are positions here
	ix    *geom.Index

	edgeOnce sync.Once
	edges    []geom.Edge
	edgeIx   *geom.Index
}

// layer returns the prepared form of ctx.Layers[l].
func (c *Context) layer(l tech.Layer) *preparedLayer {
	p := &c.prep[l]
	p.once.Do(func() {
		p.rects = c.Layers[l]
		p.ix = geom.IndexOf(layerCell, p.rects)
	})
	return p
}

// boundary returns the layer's boundary edges, in the order the
// extraction finds them, and the index over their bounding boxes (item
// ids are positions in the edge list).
func (p *preparedLayer) boundary() ([]geom.Edge, *geom.Index) {
	p.edgeOnce.Do(func() {
		p.edges = geom.BoundaryOfNormal(p.rects)
		p.edgeIx = edgeIndex(p.edges)
	})
	return p.edges, p.edgeIx
}

// edgeIndex indexes edges by bounding box, item ids being positions in
// the list.
func edgeIndex(edges []geom.Edge) *geom.Index {
	boxes := make([]geom.Rect, len(edges))
	for i, e := range edges {
		boxes[i] = geom.R(e.P0.X, e.P0.Y, e.P1.X, e.P1.Y)
	}
	return geom.IndexOf(layerCell, boxes)
}

// clipArea is geom.ClipArea(p.rects, clip) at the cost of the rects
// near clip: normalized rects are disjoint, so the clipped areas of
// those that touch the box add up to the coverage.
func (p *preparedLayer) clipArea(clip geom.Rect) int64 {
	if clip.Empty() {
		return 0
	}
	var a int64
	p.ix.QueryFunc(clip, func(_ int, r geom.Rect) bool {
		a += r.Intersect(clip).Area()
		return true
	})
	return a
}

// coversPoint is geom.CoversPoint(p.rects, pt).
func (p *preparedLayer) coversPoint(pt geom.Point) bool {
	hit := false
	p.ix.QueryFunc(geom.Rect{X0: pt.X, Y0: pt.Y, X1: pt.X, Y1: pt.Y}, func(int, geom.Rect) bool {
		hit = true
		return false
	})
	return hit
}

// touching returns the layer's rects that intersect or touch q, in
// layer order: all of the layer a boolean op confined to q can see.
func (p *preparedLayer) touching(q geom.Rect) []geom.Rect {
	ids := p.ix.Query(q)
	out := make([]geom.Rect, len(ids))
	for i, id := range ids {
		out[i] = p.rects[id]
	}
	return out
}
