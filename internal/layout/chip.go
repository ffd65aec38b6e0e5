package layout

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/tech"
)

// SoC floorplan generator: a seeded grid floorplan that places many
// instances of a small library of generated macro cells — routed logic
// blocks, hierarchical SRAM arrays, via-chain farms — plus a die seal
// ring and optional injected spacing defects. The hierarchy reaches
// 10^6..10^8 flattened rects from a few thousand cell definitions, so
// chips are built in milliseconds and evaluated without ever
// materializing the flat view (tiling.Extractor walks it lazily).

// Floorplan constants, nm. chipMargin is the minimum keep-out between
// a macro bbox and its slot boundary: wide enough that no design rule
// couples geometry across slots, which is what makes per-slot content
// reuse exact. chipRing is the seal-ring width; the ring pins the die
// bbox (and every per-routing-layer bbox) to exactly the slot grid, so
// tile and scan-window grids land on slot-periodic offsets and
// repeated macro content hashes identically.
const (
	chipMargin int64 = 2000
	chipRing   int64 = 200
)

// ChipOpts parameterizes GenerateChip.
type ChipOpts struct {
	Seed int64
	// Slots is the floorplan grid side (Slots x Slots macro sites).
	// When 0 it is derived from TargetRects.
	Slots int
	// TargetRects is the approximate flattened-rect count to size the
	// grid for when Slots == 0.
	TargetRects int64
	// SlotPitch is the macro site pitch, nm. Default 24000: a multiple
	// of the 12000nm litho scan window and of the common tile sizes, so
	// repeated slots are grid-aligned for the per-cell result cache.
	SlotPitch int64
	// Defects injects up to this many seeded metal2 minimum-spacing
	// defects (one per slot, in the slot margin band): deterministic,
	// compact, guaranteed-findable violations for differential tests.
	Defects int
	// HotspotDefects injects up to this many seeded metal1 litho
	// defect structures (alternating drawn necks and near-bridging
	// pad pairs, one per slot in the margin band): deterministic
	// printability failures the hotspot scan must find, recorded in
	// ChipInfo.HotspotSites so surrogate-gated scans can prove recall.
	HotspotDefects int
	// RepairDefects injects up to this many seeded repairable via
	// structures (one pair per slot, in the margin band): a legally
	// enclosed single via1 cut with room to double, and an
	// under-enclosed cut whose pad a repair pass can grow. Both are
	// net-annotated top-level geometry, so in-design repair tools see
	// them without flattening macros; sites are recorded in
	// ChipInfo.RepairSites.
	RepairDefects int
	// MacroMix weights the four macro kinds {sram, logicA, logicB,
	// viafarm}; nil means {5, 2, 2, 1}.
	MacroMix []int
}

// ChipInfo reports what GenerateChip built.
type ChipInfo struct {
	Slots        int
	SlotPitch    int64
	Die          geom.Rect
	Rects        int64 // flattened rect count (not materialized)
	MacroCounts  map[string]int
	DefectBoxes  []geom.Rect   // gap box of each injected spacing defect
	HotspotSites []HotspotSite // injected litho defect structures
	RepairSites  []RepairSite  // injected repairable via structures
}

// RepairSite is one injected repairable via structure. Kind "double"
// is a legally enclosed single cut with clear space for a redundant
// partner; kind "grow" is a cut whose metal2 pad under-encloses it by
// 10nm (one via1.enc.metal2 violation a repair pass can fix by growing
// the pad). Box bounds the site including the space a fix may claim.
type RepairSite struct {
	Kind string // "double" or "grow"
	Net  NetID
	Cut  geom.Rect // the via1 cut
	Box  geom.Rect
}

// HotspotSite is one injected litho defect structure: the scan of
// Layer must report at least one hotspot overlapping Box.
type HotspotSite struct {
	Layer tech.Layer
	Kind  string // "pinch" or "bridge"
	Box   geom.Rect
}

// chipMacroDef is one library entry of the floorplan generator.
type chipMacroDef struct {
	name string
	cell *Cell
	off  geom.Point // slot-local placement offset (centers the bbox)
}

// GenerateChip builds a seeded SoC-style floorplan: a Slots x Slots
// grid of macro sites, each holding one macro from the generated
// library, surrounded by a metal1/2/3 seal ring at the die edge.
// Returned layouts are meant for hierarchical evaluation; only the top
// cell is registered in the Layout (macro sub-cells of the two routed
// blocks share standard-cell names, so a chip does not serialize).
func GenerateChip(t *tech.Tech, opts ChipOpts) (*Layout, ChipInfo, error) {
	if opts.SlotPitch <= 0 {
		opts.SlotPitch = 24000
	}
	mix := opts.MacroMix
	if mix == nil {
		mix = []int{5, 2, 2, 1}
	}
	macros, err := chipMacros(t, opts.Seed)
	if err != nil {
		return nil, ChipInfo{}, err
	}
	if len(mix) != len(macros) {
		return nil, ChipInfo{}, fmt.Errorf("layout: MacroMix needs %d weights, got %d", len(macros), len(mix))
	}
	var wsum int64
	var wavg float64
	for i := range macros {
		if mix[i] < 0 {
			return nil, ChipInfo{}, fmt.Errorf("layout: negative MacroMix weight")
		}
		if mix[i] == 0 {
			continue // never placed; exempt from the slot fit check
		}
		bb := macros[i].cell.BBox()
		mx := (opts.SlotPitch - bb.Width()) / 2
		my := (opts.SlotPitch - bb.Height()) / 2
		if mx < chipMargin || my < chipMargin {
			return nil, ChipInfo{}, fmt.Errorf("layout: macro %s (%d x %d nm) needs slot pitch >= %d",
				macros[i].name, bb.Width(), bb.Height(),
				max(bb.Width(), bb.Height())+2*chipMargin)
		}
		macros[i].off = geom.Pt(mx-bb.X0, my-bb.Y0)
		wsum += int64(mix[i])
		wavg += float64(mix[i]) * float64(macros[i].cell.RectCount())
	}
	if wsum == 0 {
		return nil, ChipInfo{}, fmt.Errorf("layout: MacroMix sums to zero")
	}
	wavg /= float64(wsum)

	slots := opts.Slots
	if slots <= 0 {
		target := opts.TargetRects
		if target <= 0 {
			return nil, ChipInfo{}, fmt.Errorf("layout: chip needs Slots or TargetRects")
		}
		slots = int(math.Ceil(math.Sqrt(float64(target) / wavg)))
		if slots < 2 {
			slots = 2
		}
	}

	rnd := rand.New(rand.NewSource(opts.Seed))
	l := NewLayout(t)
	top := NewCell(fmt.Sprintf("CHIP_%dx%d_s%d", slots, slots, opts.Seed))
	if err := l.AddCell(top); err != nil {
		return nil, ChipInfo{}, err
	}

	info := ChipInfo{
		Slots:       slots,
		SlotPitch:   opts.SlotPitch,
		MacroCounts: make(map[string]int),
	}
	die := geom.R(0, 0, int64(slots)*opts.SlotPitch, int64(slots)*opts.SlotPitch)
	info.Die = die

	// Seal ring on every routing layer: pins the die bbox (and each
	// routing layer's bbox) to the slot grid. Ring segments are wide
	// and merged, so they add no violations of their own.
	for _, layer := range []tech.Layer{tech.Metal1, tech.Metal2, tech.Metal3} {
		top.Add(layer, geom.R(die.X0, die.Y0, die.X1, die.Y0+chipRing))
		top.Add(layer, geom.R(die.X0, die.Y1-chipRing, die.X1, die.Y1))
		top.Add(layer, geom.R(die.X0, die.Y0, die.X0+chipRing, die.Y1))
		top.Add(layer, geom.R(die.X1-chipRing, die.Y0, die.X1, die.Y1))
	}

	// Macro placement: one weighted pick per slot. Every instance of a
	// macro uses the same slot-local offset, so slot-aligned tiles over
	// repeated macros extract translation-identical geometry.
	pick := func() int {
		v := rnd.Int63n(wsum)
		for i, w := range mix {
			v -= int64(w)
			if v < 0 {
				return i
			}
		}
		return len(mix) - 1
	}
	for sy := 0; sy < slots; sy++ {
		for sx := 0; sx < slots; sx++ {
			m := macros[pick()]
			ox := int64(sx)*opts.SlotPitch + m.off.X
			oy := int64(sy)*opts.SlotPitch + m.off.Y
			top.Place(m.cell, geom.Translate(ox, oy), fmt.Sprintf("u_%d_%d", sx, sy))
			info.MacroCounts[m.name]++
		}
	}

	// Defect injection: a pair of legal-width, legal-area metal2 rects
	// at an illegal 50nm gap (rule: 70nm), dropped in the empty margin
	// band of distinct slots. Each yields a compact, deterministic
	// min-space violation well inside its slot, so differential tests
	// have guaranteed nonzero DRC output to compare.
	nDef := opts.Defects
	if nDef > slots*slots {
		nDef = slots * slots
	}
	if nDef > 0 {
		const gap = 50 // < metal2 MinSpace 70
		for _, si := range rnd.Perm(slots * slots)[:nDef] {
			sx, sy := int64(si%slots), int64(si/slots)
			x := sx*opts.SlotPitch + 400
			y := sy*opts.SlotPitch + 400
			top.Add(tech.Metal2, geom.R(x, y, x+300, y+70))
			top.Add(tech.Metal2, geom.R(x+300+gap, y, x+600+gap, y+70))
			info.DefectBoxes = append(info.DefectBoxes, geom.R(x+300, y, x+300+gap, y+70))
		}
	}

	// Litho defect injection: metal1 structures in the margin band that
	// print as hotspots under the nominal scan. Even slots get a drawn
	// neck (a 90nm wire necking to 30nm — prints as an interior pinch),
	// odd ones a pad pair at a 50nm gap (prints as a bridge). The slot
	// permutation is drawn after the spacing-defect one, so chips with
	// HotspotDefects == 0 are bit-identical to earlier seeds.
	nHot := opts.HotspotDefects
	if nHot > slots*slots {
		nHot = slots * slots
	}
	if nHot > 0 {
		for k, si := range rnd.Perm(slots * slots)[:nHot] {
			sx, sy := int64(si%slots), int64(si/slots)
			x := sx*opts.SlotPitch + 3000
			if k%2 == 0 {
				// Neck: 1000nm from the seal ring, ~900nm below the
				// worst-case macro edge — optically isolated both ways.
				y := sy*opts.SlotPitch + 1000
				top.Add(tech.Metal1, geom.R(x, y, x+1000, y+90))
				top.Add(tech.Metal1, geom.R(x+1000, y+30, x+1200, y+60))
				top.Add(tech.Metal1, geom.R(x+1200, y, x+2200, y+90))
				info.HotspotSites = append(info.HotspotSites,
					HotspotSite{Layer: tech.Metal1, Kind: "pinch", Box: geom.R(x, y, x+2200, y+90)})
			} else {
				// Pad pair: tall enough to print the 50nm gap as a
				// bridge, short enough to keep legal clearance to the
				// ring below and the macro keep-out above.
				y := sy*opts.SlotPitch + 400
				top.Add(tech.Metal1, geom.R(x, y, x+2000, y+700))
				top.Add(tech.Metal1, geom.R(x, y+750, x+2000, y+1450))
				info.HotspotSites = append(info.HotspotSites,
					HotspotSite{Layer: tech.Metal1, Kind: "bridge", Box: geom.R(x, y, x+2000, y+1450)})
			}
		}
	}

	// Repairable via injection: each selected slot gets a "double" site
	// (a single via1 cut on a 400nm metal1/metal2 crossing — legal as
	// drawn, with clear margin-band space a redundant-via pass can claim)
	// and a "grow" site (the same structure with the metal2 pad rotated
	// vertical and pulled 10nm short of the required end enclosure — one
	// deterministic via1.enc.metal2 violation whose fix is a pad
	// extension). Structures are net-annotated and top-level. The slot
	// permutation is drawn after the hotspot one, so chips with
	// RepairDefects == 0 are bit-identical to earlier seeds.
	nRep := opts.RepairDefects
	if nRep > slots*slots {
		nRep = slots * slots
	}
	if nRep > 0 {
		for k, si := range rnd.Perm(slots * slots)[:nRep] {
			sx, sy := int64(si%slots), int64(si/slots)
			bx := sx*opts.SlotPitch + 6000
			by := sy*opts.SlotPitch + 400
			nd, ng := NetID(2*k), NetID(2*k+1)

			// Double site: metal1 and metal2 bars, one enclosed cut.
			cut := geom.R(bx, by, bx+60, by+60)
			bar := geom.R(bx-20, by-5, bx+380, by+65)
			top.AddNet(tech.Metal1, bar, nd)
			top.AddNet(tech.Metal2, bar, nd)
			top.AddNet(tech.Via1, cut, nd)
			info.RepairSites = append(info.RepairSites,
				RepairSite{Kind: "double", Net: nd, Cut: cut, Box: bar})

			// Grow site: the vertical metal2 pad stops at by-10, 10nm
			// short of the 20nm end enclosure the cut needs below.
			gx := bx + 1000
			gcut := geom.R(gx, by, gx+60, by+60)
			gbar := geom.R(gx-20, by-5, gx+380, by+65)
			gpad := geom.R(gx-5, by-10, gx+65, by+390)
			top.AddNet(tech.Metal1, gbar, ng)
			top.AddNet(tech.Metal2, gpad, ng)
			top.AddNet(tech.Via1, gcut, ng)
			info.RepairSites = append(info.RepairSites,
				RepairSite{Kind: "grow", Net: ng, Cut: gcut, Box: gbar.Union(gpad).Bloat(20)})
		}
	}

	info.Rects = top.RectCount()
	top.BBox() // warm the bbox cache single-threaded
	return l, info, nil
}

// chipMacros builds the macro library for a seed: two routed logic
// blocks of different aspect, a hierarchical SRAM array (depth-3
// hierarchy: chip -> array -> row -> bitcell), and a via-chain farm.
func chipMacros(t *tech.Tech, seed int64) ([]chipMacroDef, error) {
	la, err := GenerateBlock(t, BlockOpts{Rows: 2, RowWidth: 8000, Nets: 16, MaxFan: 3, Seed: seed*4 + 1})
	if err != nil {
		return nil, err
	}
	lb, err := GenerateBlock(t, BlockOpts{Rows: 3, RowWidth: 6000, Nets: 20, MaxFan: 3, Seed: seed*4 + 2})
	if err != nil {
		return nil, err
	}
	return []chipMacroDef{
		{name: "sram", cell: sramMacro(t, 16, 20)},
		{name: "logicA", cell: la.Top},
		{name: "logicB", cell: lb.Top},
		{name: "viafarm", cell: viaFarm(t, 10, 6, 3)},
	}, nil
}

// sramMacro builds a rows x cols bitcell array as a two-level
// hierarchy (row cell of mirrored bitcells, array of mirrored rows) so
// pruned hierarchy walks stay shallow-fanout at every level.
func sramMacro(t *tech.Tech, rows, cols int) *Cell {
	bit := sramBitcell(t)
	bw, bh := bit.BBox().X1, bit.BBox().Y1
	row := NewCell(fmt.Sprintf("CHIP_SRAMROW_c%d", cols))
	for c := 0; c < cols; c++ {
		o, off := geom.R0, geom.Pt(int64(c)*bw, 0)
		if c%2 == 1 {
			o, off = geom.MY, geom.Pt(int64(c+1)*bw, 0)
		}
		row.Place(bit, geom.Transform{Orient: o, Offset: off}, fmt.Sprintf("b%d", c))
	}
	m := NewCell(fmt.Sprintf("CHIP_SRAM_%dx%d", rows, cols))
	for r := 0; r < rows; r++ {
		o, off := geom.R0, geom.Pt(0, int64(r)*bh)
		if r%2 == 1 {
			o, off = geom.MX, geom.Pt(0, int64(r+1)*bh)
		}
		m.Place(row, geom.Transform{Orient: o, Offset: off}, fmt.Sprintf("r%d", r))
	}
	return m
}

// viaFarm tiles via-chain cells rows x cols, each chain backed by a
// metal1 strap over its pad band (the bare chain's 100x100 pads would
// otherwise each fail metal1 min-area, drowning real signal).
func viaFarm(t *tech.Tech, links, rows, cols int) *Cell {
	chain, _ := ViaChain(t, links)
	bb := chain.BBox()
	c := NewCell(fmt.Sprintf("CHIP_VFARM_%dx%d_l%d", rows, cols, links))
	dx := bb.Width() + 600
	dy := bb.Height() + 600
	for r := 0; r < rows; r++ {
		for k := 0; k < cols; k++ {
			ox := int64(k)*dx - bb.X0
			oy := int64(r)*dy - bb.Y0
			c.Place(chain, geom.Translate(ox, oy), fmt.Sprintf("v%d_%d", r, k))
			c.AddNet(tech.Metal1, bb.Translate(geom.Pt(ox, oy)), 0)
		}
	}
	return c
}
