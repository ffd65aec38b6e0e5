package layout

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Litho/yield characterization structures: the parameterized test
// patterns process teams print on test chips. These drive the OPC
// accuracy, SRAF process-window, and via-chain experiments.

// LineSpace builds n parallel vertical lines of the given width and
// space on a layer. The first line's left edge is at x=0, lines span
// y in [0, length].
func LineSpace(t *tech.Tech, layer tech.Layer, width, space, length int64, n int) *Cell {
	c := NewCell(fmt.Sprintf("LS_%s_w%d_s%d_n%d", layer, width, space, n))
	for i := 0; i < n; i++ {
		x := int64(i) * (width + space)
		c.Add(layer, geom.R(x, 0, x+width, length))
	}
	return c
}

// ViaChain builds a serpentine via chain with the given number of
// links: metal1 pad - via1 - metal2 strap - via1 - metal1 pad - ...
// All shapes carry net 0 (the chain is one net). Returns the cell and
// the via count.
func ViaChain(t *tech.Tech, links int) (*Cell, int) {
	c := NewCell(fmt.Sprintf("VCHAIN_%d", links))
	vr := t.Rules[tech.Via1]
	vs, enc := vr.ViaSize, vr.ViaEnclosure
	padW := vs + 2*enc
	if padW < t.Rules[tech.Metal1].MinWidth {
		padW = t.Rules[tech.Metal1].MinWidth
	}
	step := padW + max(vr.ViaSpace, t.Rules[tech.Metal1].MinSpace) + 40
	vias := 0
	for i := 0; i < links; i++ {
		x := int64(i) * step
		// Metal1 pad at this station.
		c.AddNet(tech.Metal1, geom.R(x, 0, x+padW, padW), 0)
		// Via to metal2 connecting this station to the next.
		cx := x + padW/2
		c.AddNet(tech.Via1, geom.R(cx-vs/2, padW/2-vs/2, cx+vs/2, padW/2+vs/2), 0)
		vias++
		if i+1 < links {
			// Metal2 strap to the next station.
			nx := x + step + padW/2
			c.AddNet(tech.Metal2, geom.R(cx-padW/2, 0, nx+padW/2, padW), 0)
		}
	}
	return c, vias
}

// sramBitcell is a simplified bitcell: diff islands, two poly word-line
// fingers, contacts, and a metal1 bit-line strap, matching the
// regularity DFM flows exploit in memory.
func sramBitcell(t *tech.Tech) *Cell {
	c := NewCell("SRAMBIT")
	g := t.GateLength
	cs := t.Rules[tech.Contact].ViaSize
	// Cell extent is exactly 4 poly pitches x 900nm so mirrored tiling
	// abuts perfectly; the bitline and right diff island pin the bbox
	// to the full extent.
	w := 4 * t.PolyPitch
	h := int64(900)
	// Two diff islands.
	c.Add(tech.Diff, geom.R(100, 150, w/2-60, 400))
	c.Add(tech.Diff, geom.R(w/2+60, 500, w, 750))
	// Word-line poly fingers crossing the cell.
	c.Add(tech.Poly, geom.R(t.PolyPitch, 0, t.PolyPitch+g, h))
	c.Add(tech.Poly, geom.R(3*t.PolyPitch, 0, 3*t.PolyPitch+g, h))
	// Contacts on each island.
	c.Add(tech.Contact, geom.R(180, 250-cs/2, 180+cs, 250+cs/2))
	c.Add(tech.Contact, geom.R(w-180-cs, 625-cs/2, w-180, 625+cs/2))
	// Bit-line metal1 strap on the left cell edge.
	c.Add(tech.Metal1, geom.R(0, 0, t.Rules[tech.Metal1].MinWidth, h))
	return c
}
