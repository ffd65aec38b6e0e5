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

// The work unit and its result. One TileRequest is one unit of chip
// work — a stage-A DRC/density tile or a stage-B litho scan window —
// with all geometry re-based to the unit's own origin, and it is the
// only representation of a unit: the engine cuts its plan into
// TileRequests, keys them, and ships them or runs them through the same
// execute a node runs. The origin frame is what makes the fleet honest:
// the content address depends only on what is computed, never on where
// on which chip it came from, so identical tiles from different chips
// collapse onto one cache entry fleet-wide; and because every per-unit
// computation is translation-invariant, computing at the origin — here
// or on another machine — and translating the result once is exact.

// TileSchema versions the TileRequest wire payload; a node built with
// a different schema rejects the request rather than mis-evaluating it.
// Schema 2 added the interior-pinch filter flag and the surrogate
// gating config (key schema 3): both change what a unit's content
// address means, so a schema-1 node must reject rather than serve a
// stale-keyed result. Schema 3 changed only how the bulk fields are
// spelled — packed columns (packed.go) instead of arrays of objects —
// and so left keySchema alone: a key hashes geometry, not wire bytes.
// Schema 4 makes canonical order part of the contract: Shapes and Rects
// arrive sorted (key.go: canonicalize) and Validate refuses a column
// that is not, so that Key is one linear hash of the unit as it stands.
// The bytes hashed are the ones the sort inside the old key produced,
// so keySchema stayed at 3 again and every content address held; what a
// schema-3 peer cannot promise is the order, and it is refused by
// schema. There is one wire form; no decoder for an older spelling
// remains.
const TileSchema = 4

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
// and shapes/windows/rects are translated accordingly; Shapes and
// Rects are in canonical order (key.go) from the moment the unit is
// keyed or shipped. The deck configuration fields mirror exactly what
// configKey hashes, so the submitting engine and the serving node's
// cache derive the same content address — which is also what the
// client claims to the router's affinity ring.
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
	if r.Pad < 0 || r.Pad > maxCoord {
		return fmt.Errorf("tiling: tile request pad %d nm outside 0..%d", r.Pad, int64(maxCoord))
	}
	switch r.Stage {
	case StageTile:
		if r.CoreW <= 0 || r.CoreH <= 0 || r.CoreW > maxCoord || r.CoreH > maxCoord {
			return fmt.Errorf("tiling: tile request core %dx%d nm outside 1..%d", r.CoreW, r.CoreH, int64(maxCoord))
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
			if !s.R.Canonical() || !inRange(s.R) {
				return fmt.Errorf("tiling: tile request shape %d rect %v not canonical within ±%d nm", i, s.R, int64(maxCoord))
			}
			if i > 0 && shapeCmp(r.Shapes[i-1], s) > 0 {
				return fmt.Errorf("tiling: tile request shape %d sorts before shape %d, want canonical order (layer, x0, y0, x1, y1)", i, i-1)
			}
		}
		for i, w := range r.Windows {
			if !w.Canonical() || !inRange(w) {
				return fmt.Errorf("tiling: tile request density window %d rect %v not canonical within ±%d nm", i, w, int64(maxCoord))
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
		// A coarse enough GridNM carries any window past the pixel bound.
		if r.WinW > maxCoord || r.WinH > maxCoord {
			return fmt.Errorf("tiling: tile request window %dx%d nm exceeds %d", r.WinW, r.WinH, int64(maxCoord))
		}
		for i, rc := range r.Rects {
			if !inRange(rc) {
				return fmt.Errorf("tiling: tile request rect %d %v not within ±%d nm", i, rc, int64(maxCoord))
			}
			if i > 0 && rectCmp(r.Rects[i-1], rc) > 0 {
				return fmt.Errorf("tiling: tile request rect %d sorts before rect %d, want canonical order (x0, y0, x1, y1)", i, i-1)
			}
		}
	default:
		return fmt.Errorf("tiling: unknown tile request stage %q", r.Stage)
	}
	return nil
}

// maxCoord bounds the magnitude of every length and coordinate of a
// unit, nm (about 1.1 km), so that their sums cannot wrap int64: a Pad
// of MaxInt64 inverted core.Bloat(Pad), keepViolations then dropped
// every marker, and a dirty tile was answered clean.
const maxCoord = 1 << 40

// inRange reports whether every coordinate of r is within ±maxCoord.
func inRange(r geom.Rect) bool {
	return -maxCoord <= min(r.X0, r.Y0, r.X1, r.Y1) && max(r.X0, r.Y0, r.X1, r.Y1) <= maxCoord
}

// maxWindowPixels bounds the padded grid a window request may ask the
// simulator for. A production scan window is 7.2 M pixels; the cap
// leaves 9x headroom. It bounds time and the printed bitmap (8 MiB at
// the cap), which is what a hostile GridNM or WinW inside the 64 MiB
// body bound can otherwise run up. It does not need to bound the
// amplitude: the simulator holds that for one band of rows at a time
// (litho.RasterMask), and a band is capped in bytes as well as in rows
// — a few megabytes whatever the window's shape. The band is whole
// rows, so the floor is one padded row: at this cap and a production
// pad (109 rows of it before the window has one), under 5 MB.
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

// Key is the unit's content address — the hash the engine's own cache
// files the unit under (key), the config hash derived from the unit's
// own fields: one linear pass over geometry whose order Validate has
// just verified. The serving node keys its job cache and singleflight
// on this and the client claims it to the router's affinity ring, so
// "same work" means the same thing at every layer of the fleet.
func (r *TileRequest) Key() ([sha256.Size]byte, error) {
	if err := r.Validate(); err != nil {
		return [sha256.Size]byte{}, err
	}
	return r.key(configKey(r)), nil
}

// ExecuteTile runs one work unit — the serving side of the distributed
// engine, and the reference executor DistEvaluate is exact against.
// Past validation and building the decks the unit names, it is the
// engine's own compute step: execute.
func ExecuteTile(ctx context.Context, r *TileRequest) (*TileResult, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	t := r.Tech // decks want a *tech.Tech; the copy keeps r immutable
	var std *drc.Deck
	var densRules []drc.DensityWindow
	if r.Stage == StageTile {
		if r.DRC {
			std = drc.StandardDeck(&t)
		}
		if r.Density && len(r.DensityLayers) > 0 {
			// Deck order filtered to the enabled set reproduces the
			// submitter's chip-global layer filter.
			for _, rule := range drc.DensityDeck(&t, r.DensityWindow).Rules {
				if dw := rule.(drc.DensityWindow); slices.Contains(r.DensityLayers, dw.Layer) {
					densRules = append(densRules, dw)
				}
			}
		}
	}
	return r.execute(ctx, &t, std, densRules)
}

// execute runs the unit's workhorses in the unit's own frame — the one
// computation behind a unit wherever it runs: the engine calls it with
// its plan's technology and decks, ExecuteTile with those it built from
// the unit. Scan thresholds travel raw (zero means the per-layer
// default); litho.ScanWindowCtx resolves them.
func (r *TileRequest) execute(ctx context.Context, t *tech.Tech, std *drc.Deck, densRules []drc.DensityWindow) (*TileResult, error) {
	if r.Stage == StageTile {
		core := geom.R(0, 0, r.CoreW, r.CoreH)
		return computeTile(ctx, t, std, densRules, r.Shapes, core, core.Bloat(r.Pad), r.Windows)
	}
	kept, err := litho.ScanWindowCtx(ctx, r.Rects, geom.R(0, 0, r.WinW, r.WinH), t, r.Layer,
		litho.ScanOpts{Cond: r.Cond, MinWidth: r.MinWidth, MinSpace: r.MinSpace, Interior: r.Interior})
	if err != nil {
		return nil, err
	}
	return &TileResult{Hotspots: kept}, nil
}

// absorbTileResult checks a served result has the shape u's own execute
// produces — a tile, one density row per enabled layer of one value per
// window and no hotspots; a scan window, hotspots only — before the
// engine caches and stitches it. A result from a confused or
// version-skewed node must fail the run loudly: an empty list is a
// clean unit, so the other stage's output would stitch as one.
func absorbTileResult(tr *TileResult, u *TileRequest) error {
	if tr == nil {
		return errors.New("tiling: tile job settled without a result")
	}
	if u.Stage == StageWindow {
		if len(tr.Violations) > 0 || len(tr.Dens) > 0 {
			return fmt.Errorf("tiling: scan window result carries %d violations and %d density rows, want hotspots only",
				len(tr.Violations), len(tr.Dens))
		}
		return nil
	}
	if len(tr.Hotspots) > 0 {
		return fmt.Errorf("tiling: tile result carries %d hotspots, want violations and densities only", len(tr.Hotspots))
	}
	if len(tr.Dens) != len(u.DensityLayers) {
		return fmt.Errorf("tiling: tile result carries %d density rows, want %d", len(tr.Dens), len(u.DensityLayers))
	}
	for _, row := range tr.Dens {
		if len(row) != len(u.Windows) {
			return fmt.Errorf("tiling: tile result density row has %d windows, want %d", len(row), len(u.Windows))
		}
	}
	return nil
}
