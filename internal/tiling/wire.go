package tiling

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/surrogate"
	"repro/internal/tech"
)

// Distributed tile evaluation wire types. One TileRequest is one unit
// of chip work — a stage-A DRC/density tile or a stage-B litho scan
// window — with all geometry re-based to the unit's own origin. That
// origin frame is what makes the fleet honest: the content address
// (TileRequest.Key, the same tileKey/windowKey hash the local cache
// uses) depends only on what is computed, never on where on which chip
// it came from, so identical tiles from different chips collapse onto
// one cache entry fleet-wide; and because every per-tile computation
// is translation-invariant (the local cache replays results by
// translation, proven bit-identical by the tiling tests), executing at
// the origin on another machine and translating back is exact.

// TileSchema versions the TileRequest wire payload; a node built with
// a different schema rejects the request rather than mis-evaluating it.
// Schema 2 added the interior-pinch filter flag and the surrogate
// gating config (key schema 3): both change what a unit's content
// address means, so a schema-1 node must reject rather than serve a
// stale-keyed result. Schema 3 changed only how the bulk fields are
// spelled — packed columns (packed.go) instead of arrays of objects —
// and so left keySchema alone: a key hashes geometry, not wire bytes.
// There is one wire form; no decoder for the schema-2 spelling remains.
const TileSchema = 3

// TileRequest stages.
const (
	// StageTile is one DRC + density core tile: shapes extracted over
	// the halo-padded window, density windows assigned to this core.
	StageTile = "tile"
	// StageWindow is one litho hotspot scan window: layer rects
	// extracted over the simulation-padded window.
	StageWindow = "window"
)

// TileRequest is one tile work unit in wire form. Geometry is
// origin-relative: the core (or scan window) spans (0,0)-(CoreW,CoreH)
// and shapes/windows/rects are translated accordingly. The deck
// configuration fields mirror exactly what configKey hashes, so the
// submitting engine, the router's affinity ring, and the serving
// node's cache all derive the same content address.
type TileRequest struct {
	Schema int    `json:"schema"`
	Stage  string `json:"stage"`

	// Tech is the full process node (rules derive the decks and scan
	// thresholds); name-only would under-key custom nodes.
	Tech tech.Tech `json:"tech"`
	// DRC/Density/DensityWindow select the stage-A decks.
	// DensityLayers is the chip-global enabled density rule set in
	// deck order — a layer empty across the whole chip is skipped
	// exactly as the flat rule skips it, which only the submitter can
	// know.
	DRC           bool         `json:"drc,omitempty"`
	Density       bool         `json:"density,omitempty"`
	DensityWindow int64        `json:"densityWindow,omitempty"`
	DensityLayers []tech.Layer `json:"densityLayers,omitempty"`
	// Cond and MinWidth/MinSpace parameterize stage-B scans; raw
	// zeros mean the per-layer litho.ScanDefaults, resolved
	// identically on both sides. Interior applies the interior-pinch
	// filter to stage-B results. Surrogate is the submitter's gating
	// config: gating itself is submitter-side (skipped windows are
	// never sent), but the config is part of the content address, so
	// it rides along for Key parity.
	Cond      litho.Condition   `json:"cond"`
	MinWidth  int64             `json:"minWidth,omitempty"`
	MinSpace  int64             `json:"minSpace,omitempty"`
	Interior  bool              `json:"interior,omitempty"`
	Surrogate *surrogate.Config `json:"surrogate,omitempty"`

	// Stage "tile": the core spans (0,0)-(CoreW,CoreH); Pad is the
	// context halo; Windows are the core's density windows and Shapes
	// the whole-shape extraction over the padded window, both
	// core-relative.
	CoreW   int64          `json:"coreW,omitempty"`
	CoreH   int64          `json:"coreH,omitempty"`
	Pad     int64          `json:"pad"`
	Windows []geom.Rect    `json:"windows,omitempty"`
	Shapes  []layout.Shape `json:"shapes,omitempty"`

	// Stage "window": the scan window spans (0,0)-(WinW,WinH); Pad is
	// the extraction pad; Rects are the layer rects, window-relative.
	Layer tech.Layer  `json:"layer,omitempty"`
	WinW  int64       `json:"winW,omitempty"`
	WinH  int64       `json:"winH,omitempty"`
	Rects []geom.Rect `json:"rects,omitempty"`
}

// TileResult is one unit's output: a tile's kept violations and window
// densities ([densityRule][window] in request order), or a scan
// window's kept hotspots. On the wire and in the replay cache it is in
// the same origin frame as its request — violation markers
// core-relative, hotspot boxes window-relative — which is what makes
// it content-addressable; the engine translates it into the chip frame
// to stitch. Immutable once built.
type TileResult struct {
	Violations []drc.Violation `json:"violations,omitempty"`
	Dens       [][]float64     `json:"dens,omitempty"`
	Hotspots   []litho.Hotspot `json:"hotspots,omitempty"`
}

// translate returns r moved by d: violation markers and hotspot boxes
// shift into fresh slices; densities are translation-invariant and
// shared read-only.
func (r *TileResult) translate(d geom.Point) *TileResult {
	out := &TileResult{Dens: r.Dens}
	if len(r.Violations) > 0 {
		out.Violations = make([]drc.Violation, len(r.Violations))
		for i, v := range r.Violations {
			v.Marker = v.Marker.Translate(d)
			out.Violations[i] = v
		}
	}
	if len(r.Hotspots) > 0 {
		out.Hotspots = make([]litho.Hotspot, len(r.Hotspots))
		for i, h := range r.Hotspots {
			h.Box = h.Box.Translate(d)
			out.Hotspots[i] = h
		}
	}
	return out
}

// TileServed reports how the serving tier answered one work unit:
// Cached from a node's content-addressed result cache, Deduped by
// collapsing into an identical in-flight evaluation. Both mean the
// fleet skipped a redundant computation.
type TileServed struct {
	Cached  bool
	Deduped bool
}

// TileClient executes one tile work unit, usually remotely through a
// dfmd node or a dfmrouter fleet (client.TileSubmitter adapts the
// typed HTTP client, with per-unit retry/failover). Implementations
// must be safe for concurrent use: DistEvaluate calls EvalTile from
// Opts.Workers goroutines at once.
type TileClient interface {
	EvalTile(ctx context.Context, req *TileRequest) (*TileResult, TileServed, error)
}

// Validate checks the request is well-formed for this build.
func (r *TileRequest) Validate() error {
	if r == nil {
		return errors.New("tiling: nil tile request")
	}
	if r.Schema != TileSchema {
		return fmt.Errorf("tiling: tile request schema %d, this build speaks %d", r.Schema, TileSchema)
	}
	if r.Pad < 0 {
		return errors.New("tiling: tile request has negative pad")
	}
	switch r.Stage {
	case StageTile:
		if r.CoreW <= 0 || r.CoreH <= 0 {
			return fmt.Errorf("tiling: tile request core %dx%d not positive", r.CoreW, r.CoreH)
		}
		if r.Density && r.DensityWindow <= 0 {
			return fmt.Errorf("tiling: tile request density window %d nm not positive", r.DensityWindow)
		}
		for i, l := range r.DensityLayers {
			if l >= tech.NumLayers {
				return fmt.Errorf("tiling: tile request density layer %d is layer %d, this build has %d", i, l, tech.NumLayers)
			}
		}
		for i, s := range r.Shapes {
			if s.Layer >= tech.NumLayers {
				return fmt.Errorf("tiling: tile request shape %d is on layer %d, this build has %d", i, s.Layer, tech.NumLayers)
			}
			if !s.R.Canonical() {
				return fmt.Errorf("tiling: tile request shape %d rect %v not canonical", i, s.R)
			}
		}
		for i, w := range r.Windows {
			if !w.Canonical() {
				return fmt.Errorf("tiling: tile request density window %d rect %v not canonical", i, w)
			}
		}
	case StageWindow:
		if r.Layer >= tech.NumLayers {
			return fmt.Errorf("tiling: tile request scans layer %d, this build has %d", r.Layer, tech.NumLayers)
		}
		if r.WinW <= 0 || r.WinH <= 0 {
			return fmt.Errorf("tiling: tile request window %dx%d not positive", r.WinW, r.WinH)
		}
		if err := validateOptics(&r.Tech.Optics); err != nil {
			return err
		}
		if !finite(r.Cond.Defocus, r.Cond.Dose) {
			return fmt.Errorf("tiling: tile request condition %+v not finite", r.Cond)
		}
		if px := litho.ScanWindowPixels(r.Tech.Optics, r.Cond.Defocus, r.WinW, r.WinH); !(px <= maxWindowPixels) {
			return fmt.Errorf("tiling: tile request window %dx%d nm at %g nm/px simulates %.3g pixels, limit %d",
				r.WinW, r.WinH, r.Tech.Optics.GridNM, px, maxWindowPixels)
		}
	default:
		return fmt.Errorf("tiling: unknown tile request stage %q", r.Stage)
	}
	return nil
}

// maxWindowPixels bounds the padded grid a window request may ask the
// simulator for. A production scan window is 7.2 M pixels; the cap
// leaves 9x headroom and keeps one request's amplitude buffer near
// half a gigabyte, where a hostile GridNM or WinW inside the 64 MiB
// body bound would otherwise be an out-of-memory kill no panic
// recovery can catch.
const maxWindowPixels = 1 << 26

// validateOptics checks the kernel stack is one the simulator can run:
// RasterMask indexes Weights by Sigmas and sizes its kernels and grid
// from Sigmas and GridNM without looking at them again.
func validateOptics(o *tech.Optics) error {
	if len(o.Sigmas) == 0 || len(o.Sigmas) != len(o.Weights) {
		return fmt.Errorf("tiling: optics have %d sigmas and %d weights, want equal and non-zero", len(o.Sigmas), len(o.Weights))
	}
	var wsum float64
	for k, s := range o.Sigmas {
		if !finite(s, o.Weights[k]) || s <= 0 {
			return fmt.Errorf("tiling: optics kernel %d (sigma %g nm, weight %g) needs a finite positive sigma and a finite weight", k, s, o.Weights[k])
		}
		wsum += o.Weights[k]
	}
	if !finite(wsum) || wsum <= 0 {
		return fmt.Errorf("tiling: optics weights sum to %g, want positive", wsum)
	}
	if !finite(o.GridNM) || o.GridNM <= 0 {
		return fmt.Errorf("tiling: optics grid pitch %g nm/px not positive", o.GridNM)
	}
	if !finite(o.DefocusScale) {
		return fmt.Errorf("tiling: optics defocus scale %g not finite", o.DefocusScale)
	}
	return nil
}

// finite reports whether every v is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// keyOpts reconstructs the Opts fields configKey hashes from the wire
// form.
func (r *TileRequest) keyOpts() Opts {
	return Opts{
		DRC: r.DRC, Density: r.Density, DensityWindow: r.DensityWindow,
		HotspotCond: r.Cond, MinWidth: r.MinWidth, MinSpace: r.MinSpace,
		HotspotInterior: r.Interior, Surrogate: r.Surrogate,
	}
}

// Key is the unit's content address — the exact tileKey/windowKey hash
// the local evaluation cache uses, computed in the origin frame where
// the translation is the identity. The serving node keys its job
// cache, singleflight, and the router its affinity ring on this, so
// "same work" means the same thing at every layer of the fleet.
func (r *TileRequest) Key() ([sha256.Size]byte, error) {
	if err := r.Validate(); err != nil {
		return [sha256.Size]byte{}, err
	}
	cfg := configKey(&r.Tech, r.keyOpts(), r.DensityLayers)
	if r.Stage == StageTile {
		return tileKey(cfg, geom.R(0, 0, r.CoreW, r.CoreH), r.Pad, r.Windows, r.Shapes), nil
	}
	return windowKey(cfg, r.Layer, geom.R(0, 0, r.WinW, r.WinH), r.Pad, r.Rects), nil
}

// ExecuteTile runs one work unit locally — the serving side of the
// distributed engine, and the reference executor DistEvaluate is
// exact against. The computation is the same computeTile / scan-window
// path Evaluate runs, at the origin frame the request arrived in.
func ExecuteTile(ctx context.Context, r *TileRequest) (*TileResult, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	t := r.Tech // decks want a *tech.Tech; the copy keeps r immutable
	if r.Stage == StageTile {
		var std *drc.Deck
		if r.DRC {
			std = drc.StandardDeck(&t)
		}
		var densRules []drc.DensityWindow
		if r.Density && len(r.DensityLayers) > 0 {
			// Deck order filtered to the enabled set reproduces the
			// submitter's chip-global layer filter.
			for _, rule := range drc.DensityDeck(&t, r.DensityWindow).Rules {
				if dw := rule.(drc.DensityWindow); slices.Contains(r.DensityLayers, dw.Layer) {
					densRules = append(densRules, dw)
				}
			}
		}
		core := geom.R(0, 0, r.CoreW, r.CoreH)
		return computeTile(ctx, &t, std, densRules, r.Shapes, core, core.Bloat(r.Pad), r.Windows)
	}

	// Stage "window": one litho scan window, mirroring Evaluate's
	// miss path with the window at the origin (litho.ScanWindowCtx
	// resolves zero thresholds identically on both sides).
	win := geom.R(0, 0, r.WinW, r.WinH)
	kept, err := litho.ScanWindowCtx(ctx, r.Rects, win, &t, r.Layer,
		litho.ScanOpts{Cond: r.Cond, MinWidth: r.MinWidth, MinSpace: r.MinSpace, Interior: r.Interior})
	if err != nil {
		return nil, err
	}
	return &TileResult{Hotspots: kept}, nil
}

// wireRequest fills the fields every unit of one evaluation shares —
// exactly what configKey hashes. Thresholds travel raw (zero means the
// per-layer default), resolved identically on both sides.
func wireRequest(stage string, t *tech.Tech, o Opts, densLayers []tech.Layer) *TileRequest {
	return &TileRequest{
		Schema: TileSchema, Stage: stage,
		Tech: *t, DRC: o.DRC, Density: o.Density, DensityWindow: o.DensityWindow,
		DensityLayers: densLayers, Cond: o.HotspotCond,
		MinWidth: o.MinWidth, MinSpace: o.MinSpace,
		Interior: o.HotspotInterior, Surrogate: o.Surrogate,
	}
}

// rebase translates rs by d into a fresh slice.
func rebase(rs []geom.Rect, d geom.Point) []geom.Rect {
	rel := make([]geom.Rect, len(rs))
	for i, r := range rs {
		rel[i] = r.Translate(d)
	}
	return rel
}

// tileWireRequest builds the stage-A work unit for one tile, geometry
// re-based to the core origin.
func tileWireRequest(t *tech.Tech, o Opts, densLayers []tech.Layer, core geom.Rect, pad int64, absWins []geom.Rect, shapes []layout.Shape) *TileRequest {
	d := geom.Pt(-core.X0, -core.Y0)
	r := wireRequest(StageTile, t, o, densLayers)
	r.CoreW, r.CoreH, r.Pad = core.Width(), core.Height(), pad
	r.Windows = rebase(absWins, d)
	r.Shapes = make([]layout.Shape, len(shapes))
	for i, s := range shapes {
		s.R = s.R.Translate(d)
		r.Shapes[i] = s
	}
	return r
}

// windowWireRequest builds the stage-B work unit for one scan window,
// rects re-based to the window origin.
func windowWireRequest(t *tech.Tech, o Opts, densLayers []tech.Layer, layer tech.Layer, win geom.Rect, extPad int64, rs []geom.Rect) *TileRequest {
	r := wireRequest(StageWindow, t, o, densLayers)
	r.Layer, r.WinW, r.WinH, r.Pad = layer, win.Width(), win.Height(), extPad
	r.Rects = rebase(rs, geom.Pt(-win.X0, -win.Y0))
	return r
}

// absorbTileResult validates a wire result against the unit's expected
// shape — nDens density rows of nWins windows each; a scan window
// expects none — and translates it from the unit's origin frame back
// into the chip frame. The shape checks matter: a result from a
// confused or version-skewed node must fail the run loudly, never
// stitch silently.
func absorbTileResult(tr *TileResult, frame geom.Rect, nDens, nWins int) (*TileResult, error) {
	if tr == nil {
		return nil, errors.New("tiling: tile job settled without a result")
	}
	if len(tr.Dens) != nDens {
		return nil, fmt.Errorf("tiling: tile result carries %d density rows, want %d", len(tr.Dens), nDens)
	}
	for _, row := range tr.Dens {
		if len(row) != nWins {
			return nil, fmt.Errorf("tiling: tile result density row has %d windows, want %d", len(row), nWins)
		}
	}
	return tr.translate(geom.Pt(frame.X0, frame.Y0)), nil
}
