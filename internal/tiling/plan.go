package tiling

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

// plan is the grid one evaluation cuts a chip into, fixed before any
// unit runs: the stage-A tile grid with its context pad, decks and
// density-window ownership, one scanPlan per hotspot layer, and the
// template every unit starts as. Everything that locates or
// parameterizes a unit lives here and nowhere else, so "which unit is
// dirty" (Snapshot, which retains the plan) can never drift from
// "which unit is computed" (the engine, which runs it). Immutable once
// built: a delta runs on its snapshot's plan, not on a copy.
type plan struct {
	t    *tech.Tech
	opts Opts // resolved (withDefaults applied)
	die  geom.Rect

	// Stage A. Tile i's core is core(i); it is evaluated on the core
	// bloated by pad — the halo for rule interactions, stretched so
	// every density window the tile owns (which can overhang its core
	// by up to a full window) is fully covered.
	nx, ny int
	pad    int64
	std    *drc.Deck // nil unless opts.DRC
	// densRules are the density rules of layers with geometry somewhere
	// on the chip: a layer empty everywhere is skipped, exactly as the
	// flat rule skips it; a tile-locally empty layer is NOT (its
	// windows legitimately measure zero). tmpl.DensityLayers names
	// them, in deck order.
	densRules []drc.DensityWindow
	// rules names every rule of every enabled deck (skipped density
	// layers included), mirroring drc.Deck.RunCtx's zero ByRule entries.
	rules []string
	// wins is the global density window grid, anchored at the die
	// corner like the flat rule's; perTileWins assigns each window to
	// the unique tile containing its lower-left corner, so every window
	// is measured exactly once, from a tile whose pad covers it.
	wins        []geom.Rect
	perTileWins [][]int

	// Stage B, in opts.Hotspots order.
	scans []scanPlan

	// tmpl is what every unit starts as: the schema and the config
	// fields a content address depends on. cfg, its configKey, covers
	// the enabled density layers too — a chip-global property no
	// per-tile key can see (see keySchema).
	tmpl TileRequest
	cfg  [sha256.Size]byte
}

// scanPlan is one hotspot layer's stage-B grid: exactly litho.ScanGrid
// over the layer's bbox, so windows, pads, and the order-dependent seam
// dedup reproduce litho.ScanLayer bit-for-bit. Each window extracts
// only the geometry that can reach its padded raster (simulation pad +
// one pixel of grid slack). The flat engine builds the same value from
// its own bbox, so thresholds and pads cannot differ between engines.
type scanPlan struct {
	layer  tech.Layer
	bbox   geom.Rect // grid anchor: an edit that moves it re-phases every window
	swins  []geom.Rect
	extPad int64
	opts   litho.ScanOpts // thresholds are the layer's litho.ScanDefaults
}

func newScanPlan(t *tech.Tech, o Opts, l tech.Layer, bbox geom.Rect) scanPlan {
	minW, minS := litho.ScanDefaults(t, l)
	return scanPlan{
		layer: l, bbox: bbox, swins: litho.ScanGrid(bbox),
		extPad: litho.ScanPadNM + litho.SimPadNM(t.Optics, o.HotspotCond.Defocus) +
			2*int64(math.Ceil(t.Optics.GridNM)),
		opts: litho.ScanOpts{Cond: o.HotspotCond, MinWidth: minW, MinSpace: minS, Interior: o.HotspotInterior},
	}
}

// newPlan cuts the chip under ex. An empty die yields a plan with no
// units at all.
func newPlan(t *tech.Tech, ex *Extractor, o Opts) *plan {
	o = withDefaults(t, o)
	p := &plan{t: t, opts: o, die: ex.BBox()}
	if p.die.Empty() {
		return p
	}
	if o.DRC {
		p.std = drc.StandardDeck(t)
		for _, r := range p.std.Rules {
			p.rules = append(p.rules, r.Name())
		}
	}
	if o.Density {
		for _, r := range drc.DensityDeck(t, o.DensityWindow).Rules {
			p.rules = append(p.rules, r.Name())
		}
		p.densRules = densityRules(t, ex, o)
	}
	p.tmpl = TileRequest{
		Schema: TileSchema, Tech: *t,
		DRC: o.DRC, Density: o.Density, DensityWindow: o.DensityWindow,
		Cond:     o.HotspotCond,
		Interior: o.HotspotInterior, Surrogate: o.Surrogate,
	}
	for _, dw := range p.densRules {
		p.tmpl.DensityLayers = append(p.tmpl.DensityLayers, dw.Layer)
	}
	p.cfg = configKey(&p.tmpl)

	p.nx = int((p.die.Width() + o.Tile - 1) / o.Tile)
	p.ny = int((p.die.Height() + o.Tile - 1) / o.Tile)
	p.pad = o.Halo
	p.perTileWins = make([][]int, p.nx*p.ny)
	if len(p.densRules) > 0 {
		p.pad = max(p.pad, o.DensityWindow)
		p.wins = drc.WindowGrid(p.die, o.DensityWindow, o.DensityWindow/2)
		for wi, w := range p.wins {
			ti := int((w.X0-p.die.X0)/o.Tile) + p.nx*int((w.Y0-p.die.Y0)/o.Tile)
			p.perTileWins[ti] = append(p.perTileWins[ti], wi)
		}
	}
	for _, hl := range o.Hotspots {
		p.scans = append(p.scans, newScanPlan(t, o, hl, ex.LayerBBox(hl)))
	}
	return p
}

// densityRules returns, in deck order, the density rules of the layers
// with geometry somewhere under ex.
func densityRules(t *tech.Tech, ex *Extractor, o Opts) []drc.DensityWindow {
	var out []drc.DensityWindow
	for _, r := range drc.DensityDeck(t, o.DensityWindow).Rules {
		if dw := r.(drc.DensityWindow); !ex.LayerBBox(dw.Layer).Empty() {
			out = append(out, dw)
		}
	}
	return out
}

// core returns tile i's core rect in the stage-A grid.
func (p *plan) core(i int) geom.Rect {
	tile := p.opts.Tile
	return geom.R(
		p.die.X0+int64(i%p.nx)*tile, p.die.Y0+int64(i/p.nx)*tile,
		min(p.die.X0+int64(i%p.nx+1)*tile, p.die.X1),
		min(p.die.Y0+int64(i/p.nx+1)*tile, p.die.Y1))
}

// dirtyTiles returns, ascending, the tiles a change reaches: those
// whose pad-bloated core touches a changed rect under the extractor's
// closed-interval predicate — the exact condition under which a tile's
// extracted multiset can differ. The one predicate behind both what a
// delta recomputes and what Snapshot.InvalidatedTiles reports.
func (p *plan) dirtyTiles(changed []geom.Rect) []int {
	hit := make([]bool, p.nx*p.ny)
	for _, r := range changed {
		p.forTilesNear(r, p.pad, func(ti int) {
			hit[ti] = hit[ti] || touches(r, p.core(ti).Bloat(p.pad))
		})
	}
	var out []int
	for ti, h := range hit {
		if h {
			out = append(out, ti)
		}
	}
	return out
}

// spliceable verifies that the chip under ex, an edit of the one p was
// cut for, still lines up with p unit for unit, so that p — grid, decks,
// window ownership, config hash — serves the edited chip as it is and
// no second plan is built. Anything that moves the tile or window grids,
// or changes which rules run where, invalidates every retained unit at
// once — typed as ErrFullRequired so callers fall back to a
// from-scratch run instead of stitching garbage.
func (p *plan) spliceable(t *tech.Tech, ex *Extractor) error {
	if p.opts.Surrogate != nil {
		return fmt.Errorf("%w: surrogate gating is chip-global", ErrFullRequired)
	}
	if t != p.t && !reflect.DeepEqual(t, p.t) {
		return fmt.Errorf("%w: not the technology the snapshot was recorded under", ErrFullRequired)
	}
	if die := ex.BBox(); die != p.die {
		return fmt.Errorf("%w: die bbox moved %v -> %v", ErrFullRequired, p.die, die)
	}
	if p.opts.Density {
		enabled := densityRules(t, ex, p.opts)
		if !slices.EqualFunc(enabled, p.tmpl.DensityLayers, func(dw drc.DensityWindow, l tech.Layer) bool { return dw.Layer == l }) {
			return fmt.Errorf("%w: enabled density layer set changed", ErrFullRequired)
		}
	}
	for _, sp := range p.scans {
		if ex.LayerBBox(sp.layer) != sp.bbox {
			return fmt.Errorf("%w: %v bbox moved (scan grid anchor)", ErrFullRequired, sp.layer)
		}
	}
	return nil
}

// tileUnit cuts tile i: the template with the tile's dimensions, the
// density windows it owns and the whole-shape extraction over its padded
// core, all with the core at the origin — origin on the chip. Shapes
// are extracted straight into that frame; none is copied to be moved.
func (p *plan) tileUnit(i int, ex *Extractor) (*TileRequest, geom.Point) {
	core := p.core(i)
	origin, d := geom.Pt(core.X0, core.Y0), geom.Pt(-core.X0, -core.Y0)
	u := p.tmpl
	u.Stage = StageTile
	u.CoreW, u.CoreH, u.Pad = core.Width(), core.Height(), p.pad
	u.Shapes = ex.appendShapesRel(core.Bloat(p.pad), origin, nil)
	u.Windows = make([]geom.Rect, len(p.perTileWins[i]))
	for j, wi := range p.perTileWins[i] {
		u.Windows[j] = p.wins[wi].Translate(d)
	}
	return &u, origin
}

// windowUnit cuts scan window win of sp: the template with the window's
// dimensions and rs, its layer rects in the chip frame (where the scan
// driver featurizes them), re-based to the window origin.
func (p *plan) windowUnit(sp *scanPlan, win geom.Rect, rs []geom.Rect) *TileRequest {
	u := p.tmpl
	u.Stage = StageWindow
	u.Layer, u.WinW, u.WinH, u.Pad = sp.layer, win.Width(), win.Height(), sp.extPad
	d := geom.Pt(-win.X0, -win.Y0)
	u.Rects = make([]geom.Rect, len(rs))
	for i, r := range rs {
		u.Rects[i] = r.Translate(d)
	}
	return &u
}
