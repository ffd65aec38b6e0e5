// Package layout implements the hierarchical layout database: cells
// holding shapes and placed sub-cell instances, net annotations, layer
// queries, flattening, and a text serialization. It also provides the
// synthetic layout generators (standard cells, routed blocks, litho
// test patterns, via chains, SRAM arrays) that stand in for the
// proprietary product layouts DFM flows are normally run on.
package layout

import (
	"fmt"
	"math"
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
}

// AddPin appends a pin and its backing shape.
func (c *Cell) AddPin(name string, l tech.Layer, r geom.Rect, n NetID) {
	c.Pins = append(c.Pins, Pin{Name: name, Layer: l, R: r, Net: n})
	c.AddNet(l, r, n)
}

// Place adds an instance of child at the given transform.
func (c *Cell) Place(child *Cell, t geom.Transform, name string) {
	c.Insts = append(c.Insts, Instance{Cell: child, T: t, Name: name})
}

// BBox returns the bounding box of the hierarchy under the cell,
// placed instances included. It walks the hierarchy (Extents) on each
// call and stores nothing on the cell, so it is safe for concurrent
// use; a caller that needs more than the top's box walks once with
// Extents.
func (c *Cell) BBox() geom.Rect { return Extents(c)[c].BBox }

// LayerRects returns the rectangles of one layer of the cell's own
// shapes, unnormalized. Contract: this is FLAT-ONLY — geometry inside
// placed instances is silently ignored, unlike BBox, which recurses.
// Callers that need hierarchical geometry must Flatten (whole-chip)
// or walk the hierarchy lazily (tiling.Extractor); callers that only
// need the hierarchical per-layer extent read it from Extents.
func (c *Cell) LayerRects(l tech.Layer) []geom.Rect {
	var rs []geom.Rect
	for _, s := range c.Shapes {
		if s.Layer == l {
			rs = append(rs, s.R)
		}
	}
	return rs
}

// Extent is what the hierarchy under one cell holds, as Flatten would
// emit it: the bounding box of every shape, of each layer's shapes,
// and the shape count. Rects saturates at math.MaxInt64 instead of
// wrapping, so a hierarchy that doubles at each of 64 levels counts as
// huge, not as empty.
type Extent struct {
	BBox  geom.Rect
	Layer [tech.NumLayers]geom.Rect
	Rects int64
}

// Extents returns the Extent of every cell reachable from top, top
// included, from one memoized walk: each distinct cell is summarized
// once, by composing its children's summaries through their placements
// (an orthogonal transform maps a box to a box exactly), so the cost is
// O(cells + instances) however many shapes the hierarchy flattens to.
// The walk writes to no cell, and the map is the caller's: concurrent
// walks of one hierarchy are safe, and the summaries are immutable.
func Extents(top *Cell) map[*Cell]*Extent {
	m := make(map[*Cell]*Extent)
	var walk func(c *Cell) *Extent
	walk = func(c *Cell) *Extent {
		if x, ok := m[c]; ok {
			return x
		}
		x := &Extent{Rects: int64(len(c.Shapes))}
		for _, s := range c.Shapes {
			x.BBox = x.BBox.Union(s.R)
			x.Layer[s.Layer] = x.Layer[s.Layer].Union(s.R)
		}
		for _, in := range c.Insts {
			cx := walk(in.Cell)
			if !cx.BBox.Empty() {
				x.BBox = x.BBox.Union(in.T.ApplyRect(cx.BBox))
			}
			for l := range cx.Layer {
				if lb := cx.Layer[l]; !lb.Empty() {
					x.Layer[l] = x.Layer[l].Union(in.T.ApplyRect(lb))
				}
			}
			if x.Rects > math.MaxInt64-cx.Rects {
				x.Rects = math.MaxInt64
			} else {
				x.Rects += cx.Rects
			}
		}
		m[c] = x
		return x
	}
	walk(top)
	return m
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
