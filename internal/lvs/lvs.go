// Package lvs implements geometric connectivity extraction and
// comparison against net annotations — the layout-versus-schematic
// consistency check underneath every physical verification flow.
// Shapes on conducting layers that overlap or touch are one node;
// cuts connect the layers they land on. Comparing extracted
// components with the drawn net labels yields shorts (two labels in
// one component) and opens (one label split across components).
package lvs

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Connectivity is the extraction result: a component id per input
// shape (NoConduct for non-conducting layers).
type Connectivity struct {
	// Comp[i] is the extracted component of flat[i], or NoConduct.
	Comp []int
	// NumComponents is the number of distinct components.
	NumComponents int
}

// NoConduct marks shapes on layers the extractor ignores.
const NoConduct = -1

// conducting reports whether the layer carries signal. Diffusion is
// deliberately excluded: a diff strip is interrupted by every gate
// (the channel is not a conductor), so treating it as a wire would
// merge a cell's source/drain nets. Real LVS splits diff at gates and
// extracts devices; for consistency checking, ignoring diff loses
// only source/drain continuity.
func conducting(l tech.Layer) bool {
	switch l {
	case tech.Poly, tech.Metal1, tech.Metal2, tech.Metal3,
		tech.Contact, tech.Via1, tech.Via2:
		return true
	}
	return false
}

// Extract derives connectivity from geometry alone. Same-layer shapes
// that overlap or touch connect; a cut connects to every overlapping
// shape on its adjacent layers (contacts land on poly or diff below
// and metal1 above).
func Extract(flat []layout.Shape) Connectivity {
	n := len(flat)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// Per-layer indexes.
	type layerIx struct {
		ix  *geom.Index
		ids []int // flat indices, parallel to index ids
	}
	byLayer := map[tech.Layer]*layerIx{}
	for i, s := range flat {
		if !conducting(s.Layer) {
			continue
		}
		li, ok := byLayer[s.Layer]
		if !ok {
			li = &layerIx{ix: geom.NewIndex(2048)}
			byLayer[s.Layer] = li
		}
		li.ix.Insert(s.R)
		li.ids = append(li.ids, i)
	}

	// Same-layer connectivity: overlap or touch.
	for _, li := range byLayer {
		for k, fi := range li.ids {
			r := flat[fi].R
			for _, id := range li.ix.Query(r) { // touch-inclusive
				if id > k {
					union(fi, li.ids[id])
				}
			}
		}
	}

	// Cut connectivity: a cut joins overlapping shapes on its adjacent
	// layers.
	cutTargets := map[tech.Layer][]tech.Layer{
		tech.Contact: {tech.Poly, tech.Metal1},
		tech.Via1:    {tech.Metal1, tech.Metal2},
		tech.Via2:    {tech.Metal2, tech.Metal3},
	}
	for i, s := range flat {
		targets, isCut := cutTargets[s.Layer]
		if !isCut {
			continue
		}
		for _, tl := range targets {
			li, ok := byLayer[tl]
			if !ok {
				continue
			}
			li.ix.QueryFunc(s.R, func(id int, r geom.Rect) bool {
				if r.Overlaps(s.R) {
					union(i, li.ids[id])
				}
				return true
			})
		}
	}

	// Compact component ids.
	out := Connectivity{Comp: make([]int, n)}
	next := 0
	compID := map[int]int{}
	for i, s := range flat {
		if !conducting(s.Layer) {
			out.Comp[i] = NoConduct
			continue
		}
		root := find(i)
		id, ok := compID[root]
		if !ok {
			id = next
			next++
			compID[root] = id
		}
		out.Comp[i] = id
	}
	out.NumComponents = next
	return out
}

// Short is one extracted component carrying two or more annotated nets.
type Short struct {
	Component int
	Nets      []layout.NetID
}

// Open is one annotated net split across multiple components.
type Open struct {
	Net        layout.NetID
	Components int
}

// Report is the comparison of extraction against annotation.
type Report struct {
	Shorts []Short
	Opens  []Open
}

func (r Report) String() string {
	return fmt.Sprintf("lvs(%d shorts, %d opens)", len(r.Shorts), len(r.Opens))
}

// CompareScoped checks the extracted connectivity against the shapes'
// net annotations, for net ids <= maxSignal. Unannotated (NoNet) shapes
// constrain nothing. Flatten remaps instance-internal nets into the id range above the
// top cell's own nets, and a routed top-level net legitimately joins
// the pin nets of the cells it connects — so block-level verification
// passes the top cell's MaxNet as the boundary and checks only
// top-level nets against each other.
func CompareScoped(flat []layout.Shape, c Connectivity, maxSignal layout.NetID) Report {
	netsOfComp := map[int]map[layout.NetID]struct{}{}
	compsOfNet := map[layout.NetID]map[int]struct{}{}
	for i, s := range flat {
		comp := c.Comp[i]
		if comp == NoConduct || s.Net == layout.NoNet || s.Net > maxSignal {
			continue
		}
		if netsOfComp[comp] == nil {
			netsOfComp[comp] = map[layout.NetID]struct{}{}
		}
		netsOfComp[comp][s.Net] = struct{}{}
		if compsOfNet[s.Net] == nil {
			compsOfNet[s.Net] = map[int]struct{}{}
		}
		compsOfNet[s.Net][comp] = struct{}{}
	}

	var rep Report
	var comps []int
	for comp := range netsOfComp {
		comps = append(comps, comp)
	}
	sort.Ints(comps)
	for _, comp := range comps {
		nets := netsOfComp[comp]
		if len(nets) < 2 {
			continue
		}
		var ids []layout.NetID
		for n := range nets {
			ids = append(ids, n)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		rep.Shorts = append(rep.Shorts, Short{Component: comp, Nets: ids})
	}
	var nets []layout.NetID
	for n := range compsOfNet {
		nets = append(nets, n)
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i] < nets[j] })
	for _, n := range nets {
		if k := len(compsOfNet[n]); k > 1 {
			rep.Opens = append(rep.Opens, Open{Net: n, Components: k})
		}
	}
	return rep
}
