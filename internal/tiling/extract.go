// Package tiling implements chip-scale streaming evaluation: the chip
// bbox is sharded into halo-padded tiles, each tile's geometry is
// extracted lazily from the cell hierarchy (instance-bbox pruning —
// never a whole-chip Flatten), the per-tile workhorses (sweep-line
// DRC, windowed density, litho hotspot scan) run in parallel across
// tiles, and results are stitched boundary-correct at the seams.
// Memory stays O(tile), not O(chip), and a content-address cache
// replays results for repeated macro content away from seams.
package tiling

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Extractor answers window queries against a cell hierarchy. It holds
// layout.Extents of the hierarchy, taken once at construction: every
// window walk prunes on those immutable summaries, so concurrent
// extractions are pure reads and race-free.
type Extractor struct {
	top *layout.Cell
	ext map[*layout.Cell]*layout.Extent
}

// NewExtractor summarizes every cell reachable from top. Cost is
// O(cells + instances); the flattened geometry is never materialized.
func NewExtractor(top *layout.Cell) *Extractor {
	return &Extractor{top: top, ext: layout.Extents(top)}
}

// BBox returns the hierarchical bounding box of the top cell.
func (e *Extractor) BBox() geom.Rect { return e.ext[e.top].BBox }

// LayerBBox returns the hierarchical bounding box of one layer.
func (e *Extractor) LayerBBox(l tech.Layer) geom.Rect { return e.ext[e.top].Layer[l] }

// Rects returns the flattened shape count of the hierarchy.
func (e *Extractor) Rects() int64 { return e.ext[e.top].Rects }

// touches reports closed-interval overlap: unlike Rect.Overlaps
// (interior intersection), shapes merely abutting the window edge are
// included — connectivity-sensitive checks (min-area components)
// treat touching rects as connected, so the extraction must too.
func touches(a, b geom.Rect) bool {
	return a.X0 <= b.X1 && b.X0 <= a.X1 && a.Y0 <= b.Y1 && b.Y0 <= a.Y1
}

// AppendShapes appends every flattened shape whose rect overlaps or
// touches win, in Flatten's emission order. Instance subtrees whose
// transformed bbox misses the window are pruned whole. Shapes are
// emitted WHOLE (never clipped — clipping would manufacture false
// width/area violations) with net ids cleared to NoNet: instance nets
// are not remapped by a window walk, and no tiled check reads them.
// Safe for concurrent use.
func (e *Extractor) AppendShapes(win geom.Rect, dst []layout.Shape) []layout.Shape {
	return e.walkShapes(e.top, geom.Identity, win, dst)
}

// appendShapesRel is AppendShapes with every shape re-based to origin:
// the walk starts from the translation, over the translated window, so
// a tile's shapes arrive in the tile's frame at no cost.
func (e *Extractor) appendShapesRel(win geom.Rect, origin geom.Point, dst []layout.Shape) []layout.Shape {
	d := geom.Pt(-origin.X, -origin.Y)
	return e.walkShapes(e.top, geom.Translate(d.X, d.Y), win.Translate(d), dst)
}

func (e *Extractor) walkShapes(c *layout.Cell, t geom.Transform, win geom.Rect, dst []layout.Shape) []layout.Shape {
	for _, s := range c.Shapes {
		r := t.ApplyRect(s.R)
		if touches(r, win) {
			dst = append(dst, layout.Shape{Layer: s.Layer, R: r, Net: layout.NoNet})
		}
	}
	for _, in := range c.Insts {
		ct := t.Compose(in.T)
		x := e.ext[in.Cell]
		bb := ct.ApplyRect(x.BBox)
		if x.BBox.Empty() || !touches(bb, win) {
			continue
		}
		if win.ContainsRect(bb) {
			// Every rect below will be emitted: make room for them once.
			dst = slices.Grow(dst, int(x.Rects))
		}
		dst = e.walkShapes(in.Cell, ct, win, dst)
	}
	return dst
}

// AppendLayerRects is AppendShapes restricted to one layer, pruning on
// the per-layer bounds (a subtree with metal3 in the window but no
// metal1 is skipped when extracting metal1). Safe for concurrent use.
func (e *Extractor) AppendLayerRects(win geom.Rect, l tech.Layer, dst []geom.Rect) []geom.Rect {
	return e.walkLayer(e.top, geom.Identity, win, l, dst)
}

func (e *Extractor) walkLayer(c *layout.Cell, t geom.Transform, win geom.Rect, l tech.Layer, dst []geom.Rect) []geom.Rect {
	for _, s := range c.Shapes {
		if s.Layer != l {
			continue
		}
		r := t.ApplyRect(s.R)
		if touches(r, win) {
			dst = append(dst, r)
		}
	}
	for _, in := range c.Insts {
		ct := t.Compose(in.T)
		lb := e.ext[in.Cell].Layer[l]
		if lb.Empty() || !touches(ct.ApplyRect(lb), win) {
			continue
		}
		dst = e.walkLayer(in.Cell, ct, win, l, dst)
	}
	return dst
}
