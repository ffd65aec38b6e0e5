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

// Extractor answers window queries against a cell hierarchy. All
// per-cell bounds are precomputed immutably at construction, so —
// unlike layout.Cell.BBox, which writes a cache on first use —
// concurrent window extractions are pure reads and race-free.
type Extractor struct {
	top  *layout.Cell
	info map[*layout.Cell]*cellInfo
}

type cellInfo struct {
	bbox    geom.Rect
	layerBB [tech.NumLayers]geom.Rect
	rects   int64
}

// NewExtractor precomputes hierarchical bounds for every cell
// reachable from top. Cost is O(cells + instances); the flattened
// geometry is never materialized.
func NewExtractor(top *layout.Cell) *Extractor {
	e := &Extractor{top: top, info: make(map[*layout.Cell]*cellInfo)}
	e.build(top)
	return e
}

func (e *Extractor) build(c *layout.Cell) *cellInfo {
	if ci, ok := e.info[c]; ok {
		return ci
	}
	ci := &cellInfo{rects: int64(len(c.Shapes))}
	for _, s := range c.Shapes {
		ci.bbox = ci.bbox.Union(s.R)
		ci.layerBB[s.Layer] = ci.layerBB[s.Layer].Union(s.R)
	}
	for _, in := range c.Insts {
		child := e.build(in.Cell)
		if !child.bbox.Empty() {
			ci.bbox = ci.bbox.Union(in.T.ApplyRect(child.bbox))
		}
		for l := range child.layerBB {
			if !child.layerBB[l].Empty() {
				ci.layerBB[l] = ci.layerBB[l].Union(in.T.ApplyRect(child.layerBB[l]))
			}
		}
		ci.rects += child.rects
	}
	e.info[c] = ci
	return ci
}

// BBox returns the hierarchical bounding box of the top cell.
func (e *Extractor) BBox() geom.Rect { return e.info[e.top].bbox }

// LayerBBox returns the hierarchical bounding box of one layer.
func (e *Extractor) LayerBBox(l tech.Layer) geom.Rect { return e.info[e.top].layerBB[l] }

// Rects returns the flattened shape count of the hierarchy.
func (e *Extractor) Rects() int64 { return e.info[e.top].rects }

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
		ci := e.info[in.Cell]
		bb := ct.ApplyRect(ci.bbox)
		if ci.bbox.Empty() || !touches(bb, win) {
			continue
		}
		if win.ContainsRect(bb) {
			// Every rect below will be emitted: make room for them once.
			dst = slices.Grow(dst, int(ci.rects))
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
		lb := e.info[in.Cell].layerBB[l]
		if lb.Empty() || !touches(ct.ApplyRect(lb), win) {
			continue
		}
		dst = e.walkLayer(in.Cell, ct, win, l, dst)
	}
	return dst
}
