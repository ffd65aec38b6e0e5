package litho

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// Hotspot detection: a pinch is a printed feature narrower than the
// electrical minimum; a bridge is a printed gap narrower than the
// isolation minimum. Both are found with bitmap morphology on the
// printed raster — exactly the full-chip printability verification
// flow DFM inserts after OPC.

// HotspotKind distinguishes failure modes.
type HotspotKind uint8

// Hotspot kinds.
const (
	Pinch HotspotKind = iota
	Bridge
)

func (k HotspotKind) String() string {
	if k == Pinch {
		return "pinch"
	}
	return "bridge"
}

// Hotspot is one detected printability failure site.
type Hotspot struct {
	Kind HotspotKind
	Box  geom.Rect // bounding box of the failing pixels, nm
}

func (h Hotspot) String() string {
	return fmt.Sprintf("%s @ %v", h.Kind, h.Box)
}

// detect finds pinch and bridge sites in a printed bitmap and returns
// them in SortHotspots order. minWidth is the smallest acceptable
// printed linewidth and minSpace the smallest acceptable printed gap,
// both in nm. printed is not modified: the opening and the closing are
// each made in place in one work copy, which the difference then
// overwrites and Blobs empties, over one scratch — two bitmap-sized
// allocations, each most of a megabyte for a scan window.
func detect(printed *Bitmap, minWidth, minSpace int64) []Hotspot {
	sp := hDetectNS.Start()
	defer sp.End()
	if obs.Enabled() {
		var walked int
		for j := 0; j < printed.H; j++ {
			lo, hi := extent(printed.row(j))
			walked += hi - lo
		}
		cWordsWalked.Add(int64(walked))
		cWordsSpanned.Add(int64(len(printed.words)))
	}

	radius := func(nm int64) int { return max(int(float64(nm)/printed.Pitch/2+0.5), 1) }
	work := printed.clone()
	tmp := make([]uint64, len(work.words))
	var out []Hotspot
	// Ignore single-pixel speckle from raster quantization.
	collect := func(kind HotspotKind) {
		for _, b := range work.Blobs() {
			if b.Width() > int64(printed.Pitch) || b.Height() > int64(printed.Pitch) {
				out = append(out, Hotspot{Kind: kind, Box: b})
			}
		}
	}

	// Pinch: printed pixels removed by opening with a structuring
	// element just under minWidth.
	rw := radius(minWidth)
	work.erode(rw, tmp)
	work.dilate(rw, tmp)
	for i, w := range printed.words {
		work.words[i] = w &^ work.words[i]
	}
	collect(Pinch)

	// Bridge: gap pixels removed by closing with an element just under
	// minSpace — i.e. unprinted pixels that the closing claims.
	rs := radius(minSpace)
	copy(work.words, printed.words)
	work.dilate(rs, tmp)
	work.erode(rs, tmp)
	for i, w := range printed.words {
		work.words[i] &^= w
	}
	collect(Bridge)

	SortHotspots(out)
	return out
}

// Scan-window geometry, exported so chip-scale tiled evaluation
// (internal/tiling) can enumerate byte-identical windows and reproduce
// ScanLayer results exactly without holding the flat layer.
const (
	// ScanTileNM is the scan window edge, nm.
	ScanTileNM int64 = 12000
	// ScanPadNM is the margin added around each window before
	// simulation so hotspots at window seams are detected whole.
	ScanPadNM int64 = 500
)

// ScanGrid returns the scan windows ScanLayer simulates for a layer
// whose geometry has the given bounding box: ScanTileNM steps anchored
// at the bbox corner, clipped to the bbox. Empty bbox -> no windows.
func ScanGrid(bb geom.Rect) []geom.Rect {
	if bb.Empty() {
		return nil
	}
	var out []geom.Rect
	for y := bb.Y0; y < bb.Y1; y += ScanTileNM {
		for x := bb.X0; x < bb.X1; x += ScanTileNM {
			out = append(out, geom.R(x, y, min(x+ScanTileNM, bb.X1), min(y+ScanTileNM, bb.Y1)))
		}
	}
	return out
}

// ScanDefaults returns the minWidth/minSpace thresholds ScanLayer uses
// when the caller passes zero: 60% of the layer's design rules, the
// standard "electrical fail" margin.
func ScanDefaults(t *tech.Tech, layer tech.Layer) (minWidth, minSpace int64) {
	return t.Rules[layer].MinWidth * 6 / 10, t.Rules[layer].MinSpace * 6 / 10
}

// ScanKeeps reports whether a hotspot found in a padded simulation of
// win is attributed to win (rather than to the neighboring window that
// also sees it in its pad).
func ScanKeeps(win geom.Rect, h Hotspot) bool {
	return h.Box.Overlaps(win) || win.ContainsRect(h.Box)
}

// ScanOpts bundles the hotspot-scan parameters shared by the layer
// and single-window entry points. MinWidth/MinSpace zero default to
// ScanDefaults; Cond passes through as given (its zero value is the
// nominal corner).
type ScanOpts struct {
	Cond     Condition
	MinWidth int64
	MinSpace int64
	// Interior drops pinch markers that sit at drawn line ends
	// (normal lithographic pull-back) and keeps only those with drawn
	// metal continuing on both sides — the markers that indicate a
	// real necking failure. Bridges are never dropped.
	Interior bool
}

// resolve fills threshold defaults for a layer.
func (o ScanOpts) resolve(t *tech.Tech, layer tech.Layer) ScanOpts {
	if o.MinWidth == 0 || o.MinSpace == 0 {
		dw, ds := ScanDefaults(t, layer)
		if o.MinWidth == 0 {
			o.MinWidth = dw
		}
		if o.MinSpace == 0 {
			o.MinSpace = ds
		}
	}
	return o
}

// InteriorDefect reports whether a hotspot marks a failure in the
// interior of drawn geometry. Bridges always do. A pinch marker
// qualifies only when the drawn layer covers probe points one probe
// distance beyond each marker edge along its minor axis — i.e. the
// wire continues past the marker in both directions, so the
// narrowing is a true neck rather than the expected pull-back at a
// line end. The marker's minor axis is the wire direction: opening
// leaves thin slivers across the neck, so a pinch on a vertical wire
// yields a wider-than-tall marker.
func InteriorDefect(h Hotspot, drawn []geom.Rect, probe int64) bool {
	if h.Kind == Bridge {
		return true
	}
	cx := (h.Box.X0 + h.Box.X1) / 2
	cy := (h.Box.Y0 + h.Box.Y1) / 2
	var pa, pb geom.Point
	if h.Box.Width() >= h.Box.Height() {
		pa, pb = geom.Pt(cx, h.Box.Y0-probe), geom.Pt(cx, h.Box.Y1+probe)
	} else {
		pa, pb = geom.Pt(h.Box.X0-probe, cy), geom.Pt(h.Box.X1+probe, cy)
	}
	return covered(drawn, pa) && covered(drawn, pb)
}

func covered(rects []geom.Rect, p geom.Point) bool {
	for _, r := range rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// ScanWindowPixels returns the size, in pixels, of the padded grid
// ScanWindowCtx simulates for a w x h nm window under opt at the given
// defocus. It is computed in float64 so that a window or kernel no
// buffer could hold comes back huge or +Inf rather than wrapped:
// callers taking requests from outside the process bound it before
// anything is allocated.
func ScanWindowPixels(opt tech.Optics, defocus float64, w, h int64) float64 {
	padPx, pitch := simPad(opt, defocus)
	side := func(nm int64) float64 {
		return math.Ceil((float64(nm)+2*float64(ScanPadNM))/pitch) + 2*padPx
	}
	return side(w) * side(h)
}

// ScanWindowCtx simulates one scan window (with the standard seam
// pad) and returns the hotspots attributed to it by ScanKeeps, in
// SortHotspots order. Callers stitching multiple windows dedupe
// identical boxes across seams themselves. rs must hold every shape
// reaching the padded window.
func ScanWindowCtx(ctx context.Context, rs []geom.Rect, win geom.Rect, t *tech.Tech, layer tech.Layer, o ScanOpts) ([]Hotspot, error) {
	o = o.resolve(t, layer)
	sp := hScanNS.Start()
	defer sp.End()
	cScanWindows.Inc()
	printed, err := simulatePrinted(ctx, rs, win.Bloat(ScanPadNM), t.Optics, o.Cond)
	if err != nil {
		return nil, err
	}
	var out []Hotspot
	for _, h := range detect(printed, o.MinWidth, o.MinSpace) {
		if !ScanKeeps(win, h) {
			continue
		}
		if o.Interior && !InteriorDefect(h, rs, o.MinWidth) {
			cScanInterior.Inc()
			continue
		}
		out = append(out, h)
	}
	cScanFound.Add(int64(len(out)))
	return out, nil
}

// SortHotspots orders hotspots canonically: by Y0, then X0, then
// kind, then X1, then Y1 — a total order, so the result does not
// depend on the input permutation. It is the order every scan entry
// point and the tiled engine return.
func SortHotspots(out []Hotspot) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Box.Y0 != b.Box.Y0 {
			return a.Box.Y0 < b.Box.Y0
		}
		if a.Box.X0 != b.Box.X0 {
			return a.Box.X0 < b.Box.X0
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Box.X1 != b.Box.X1 {
			return a.Box.X1 < b.Box.X1
		}
		return a.Box.Y1 < b.Box.Y1
	})
}

// ScanLayer simulates a full layer in tiles and returns all hotspots.
// Tiling bounds memory on large blocks; the simulation pad makes tile
// seams invisible. minWidth/minSpace default to 60% of the layer's
// design rules when zero — the standard "electrical fail" margin.
func ScanLayer(rs []geom.Rect, t *tech.Tech, layer tech.Layer, cond Condition, minWidth, minSpace int64) []Hotspot {
	hs, _ := ScanLayerCtx(context.Background(), rs, t, layer, cond, minWidth, minSpace)
	return hs
}

// ScanLayerCtx is ScanLayer with a cancellation checkpoint per tile
// (and per blur pass inside each tile's simulation); on cancellation
// it returns the hotspots found so far alongside the context error.
func ScanLayerCtx(ctx context.Context, rs []geom.Rect, t *tech.Tech, layer tech.Layer, cond Condition, minWidth, minSpace int64) ([]Hotspot, error) {
	return ScanLayerOpts(ctx, rs, t, layer, ScanOpts{Cond: cond, MinWidth: minWidth, MinSpace: minSpace})
}

// ScanLayerOpts is ScanLayerCtx with the full option set, including
// the interior-defect filter.
func ScanLayerOpts(ctx context.Context, rs []geom.Rect, t *tech.Tech, layer tech.Layer, o ScanOpts) ([]Hotspot, error) {
	o = o.resolve(t, layer)
	var out []Hotspot
	seen := make(map[geom.Rect]bool)
	for _, win := range ScanGrid(geom.BBoxOf(rs)) {
		// The window pad makes seam hotspots visible whole from both
		// sides; the seen-set dedupes the double attribution.
		hs, err := ScanWindowCtx(ctx, rs, win, t, layer, o)
		if err != nil {
			return out, err
		}
		for _, h := range hs {
			if seen[h.Box] {
				continue
			}
			seen[h.Box] = true
			out = append(out, h)
		}
	}
	SortHotspots(out)
	return out, nil
}
