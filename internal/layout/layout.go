// Package layout implements the hierarchical layout database: cells
// holding shapes and placed sub-cell instances, net annotations, layer
// queries, flattening, and a text serialization. It also provides the
// synthetic layout generators (standard cells, routed blocks, litho
// test patterns, via chains, SRAM arrays) that stand in for the
// proprietary product layouts DFM flows are normally run on.
package layout

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/tech"
)

// NetID identifies an electrical net within one cell. Net numbering is
// local to the cell; Flatten remaps instance-internal nets to unique
// global ids.
type NetID int32

// NoNet marks shapes with no net annotation (fill, dummies).
const NoNet NetID = -1

// Shape is one rectangle on one layer, optionally annotated with the
// net it belongs to.
type Shape struct {
	Layer tech.Layer
	R     geom.Rect
	Net   NetID
}

// Instance is a placed occurrence of a child cell.
type Instance struct {
	Cell *Cell
	T    geom.Transform
	Name string
}

// Pin is a named connection point of a cell.
type Pin struct {
	Name  string
	Layer tech.Layer
	R     geom.Rect
	Net   NetID
}

// Cell is a named collection of shapes, pins, and child instances.
type Cell struct {
	Name   string
	Shapes []Shape
	Pins   []Pin
	Insts  []Instance

	bboxValid bool
	bbox      geom.Rect
}

// NewCell creates an empty cell.
func NewCell(name string) *Cell { return &Cell{Name: name} }

// Add appends a shape with no net.
func (c *Cell) Add(l tech.Layer, r geom.Rect) {
	c.AddNet(l, r, NoNet)
}

// AddNet appends a shape annotated with a net.
func (c *Cell) AddNet(l tech.Layer, r geom.Rect, n NetID) {
	if r.Empty() {
		return
	}
	c.Shapes = append(c.Shapes, Shape{Layer: l, R: r, Net: n})
	c.bboxValid = false
}

// AddPin appends a pin and its backing shape.
func (c *Cell) AddPin(name string, l tech.Layer, r geom.Rect, n NetID) {
	c.Pins = append(c.Pins, Pin{Name: name, Layer: l, R: r, Net: n})
	c.AddNet(l, r, n)
}

// Place adds an instance of child at the given transform.
func (c *Cell) Place(child *Cell, t geom.Transform, name string) {
	c.Insts = append(c.Insts, Instance{Cell: child, T: t, Name: name})
	c.bboxValid = false
}

// BBox returns the bounding box of the cell including placed
// instances (the full hierarchical extent, recursively). The result
// is cached on the cell; because the cache is written on first use,
// BBox is NOT safe for concurrent first calls — warm it from a single
// goroutine (or use tiling.NewExtractor, which precomputes immutable
// per-cell bounds) before fanning out.
func (c *Cell) BBox() geom.Rect {
	if c.bboxValid {
		return c.bbox
	}
	var bb geom.Rect
	for _, s := range c.Shapes {
		bb = bb.Union(s.R)
	}
	for _, in := range c.Insts {
		bb = bb.Union(in.T.ApplyRect(in.Cell.BBox()))
	}
	c.bbox, c.bboxValid = bb, true
	return bb
}

// LayerRects returns the rectangles of one layer of the cell's own
// shapes, unnormalized. Contract: this is FLAT-ONLY — geometry inside
// placed instances is silently ignored, unlike BBox, which recurses.
// Callers that need hierarchical geometry must Flatten (whole-chip)
// or walk the hierarchy lazily (tiling.Extractor); callers that only
// need the hierarchical per-layer extent should use LayerBBox.
func (c *Cell) LayerRects(l tech.Layer) []geom.Rect {
	var rs []geom.Rect
	for _, s := range c.Shapes {
		if s.Layer == l {
			rs = append(rs, s.R)
		}
	}
	return rs
}

// LayerBBox returns the bounding box of one layer including placed
// instances — the hierarchical sibling of LayerRects that the tiler
// uses to anchor per-layer scan grids without flattening. Axis-aligned
// orthogonal transforms map bboxes to bboxes exactly, so the walk
// composes child layer bboxes instead of visiting every shape path:
// cost is O(cells + instances), not O(flattened shapes). Not cached on
// the cell (a fresh memo per call), so it is safe to call concurrently
// with other read-only cell access.
func (c *Cell) LayerBBox(l tech.Layer) geom.Rect {
	memo := make(map[*Cell]geom.Rect)
	var walk func(c *Cell) geom.Rect
	walk = func(c *Cell) geom.Rect {
		if bb, ok := memo[c]; ok {
			return bb
		}
		var bb geom.Rect
		for _, s := range c.Shapes {
			if s.Layer == l {
				bb = bb.Union(s.R)
			}
		}
		for _, in := range c.Insts {
			cb := walk(in.Cell)
			if !cb.Empty() {
				bb = bb.Union(in.T.ApplyRect(cb))
			}
		}
		memo[c] = bb
		return bb
	}
	return walk(c)
}

// RectCount returns the number of shapes Flatten would emit for the
// hierarchy under the cell, without materializing them. Memoized per
// distinct cell, so counting a 10^8-rect chip costs O(cells +
// instances).
func (c *Cell) RectCount() int64 {
	memo := make(map[*Cell]int64)
	var walk func(c *Cell) int64
	walk = func(c *Cell) int64 {
		if n, ok := memo[c]; ok {
			return n
		}
		n := int64(len(c.Shapes))
		for _, in := range c.Insts {
			n += walk(in.Cell)
		}
		memo[c] = n
		return n
	}
	return walk(c)
}

// MaxNet returns the highest net id used by the cell's own shapes, or
// NoNet when none are annotated.
func (c *Cell) MaxNet() NetID {
	maxN := NoNet
	for _, s := range c.Shapes {
		if s.Net > maxN {
			maxN = s.Net
		}
	}
	for _, p := range c.Pins {
		if p.Net > maxN {
			maxN = p.Net
		}
	}
	return maxN
}

// Layout is a set of cells with a designated top.
type Layout struct {
	Tech  *tech.Tech
	Cells map[string]*Cell
	Top   *Cell
}

// NewLayout creates an empty layout for a technology.
func NewLayout(t *tech.Tech) *Layout {
	return &Layout{Tech: t, Cells: make(map[string]*Cell)}
}

// AddCell registers a cell; the first registered cell becomes top
// unless SetTop overrides.
func (l *Layout) AddCell(c *Cell) error {
	if _, dup := l.Cells[c.Name]; dup {
		return fmt.Errorf("layout: duplicate cell %q", c.Name)
	}
	l.Cells[c.Name] = c
	if l.Top == nil {
		l.Top = c
	}
	return nil
}

// SetTop designates the top cell by name.
func (l *Layout) SetTop(name string) error {
	c, ok := l.Cells[name]
	if !ok {
		return fmt.Errorf("layout: no cell %q", name)
	}
	l.Top = c
	return nil
}

// Flatten resolves the full hierarchy under the top cell into a flat
// shape list. Net ids are made globally unique: top-level nets keep
// their ids, and each instance's local nets are remapped into a fresh
// id range (hierarchical connectivity through pins is not modeled; the
// generators produce top-level routing with top-level net ids).
func (l *Layout) Flatten() []Shape {
	if l.Top == nil {
		return nil
	}
	var out []Shape
	next := l.Top.MaxNet() + 1
	var walk func(c *Cell, t geom.Transform, remap map[NetID]NetID)
	walk = func(c *Cell, t geom.Transform, remap map[NetID]NetID) {
		for _, s := range c.Shapes {
			n := s.Net
			if remap != nil && n != NoNet {
				m, ok := remap[n]
				if !ok {
					m = next
					next++
					remap[n] = m
				}
				n = m
			}
			out = append(out, Shape{Layer: s.Layer, R: t.ApplyRect(s.R), Net: n})
		}
		for _, in := range c.Insts {
			walk(in.Cell, t.Compose(in.T), map[NetID]NetID{})
		}
	}
	walk(l.Top, geom.Identity, nil)
	return out
}

// ByLayer splits a flat shape list into per-layer rect slices.
func ByLayer(shapes []Shape) map[tech.Layer][]geom.Rect {
	m := make(map[tech.Layer][]geom.Rect)
	for _, s := range shapes {
		m[s.Layer] = append(m[s.Layer], s.R)
	}
	return m
}

// NetsOn returns the shapes of one layer grouped by net id, with
// NoNet shapes under NoNet. Iteration order over the returned map is
// randomized by Go; callers needing determinism should sort SortedNets.
func NetsOn(shapes []Shape, l tech.Layer) map[NetID][]geom.Rect {
	m := make(map[NetID][]geom.Rect)
	for _, s := range shapes {
		if s.Layer == l {
			m[s.Net] = append(m[s.Net], s.R)
		}
	}
	return m
}

// SortedNets returns the net ids of a net->rects map in ascending
// order.
func SortedNets(m map[NetID][]geom.Rect) []NetID {
	ids := make([]NetID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats summarizes a flat shape list.
type Stats struct {
	Shapes   int
	Area     map[tech.Layer]int64
	BBox     geom.Rect
	NetCount int
}

// Summarize computes layout statistics from a flat shape list.
func Summarize(shapes []Shape) Stats {
	st := Stats{Area: make(map[tech.Layer]int64)}
	nets := make(map[NetID]struct{})
	perLayer := make(map[tech.Layer][]geom.Rect)
	for _, s := range shapes {
		st.Shapes++
		st.BBox = st.BBox.Union(s.R)
		perLayer[s.Layer] = append(perLayer[s.Layer], s.R)
		if s.Net != NoNet {
			nets[s.Net] = struct{}{}
		}
	}
	for l, rs := range perLayer {
		st.Area[l] = geom.AreaOf(rs)
	}
	st.NetCount = len(nets)
	return st
}
