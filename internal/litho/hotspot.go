package litho

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

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

// detector finds pinch and bridge sites in a printed window streamed
// to it a row at a time (stream.go), as the render thresholds it. Each
// row goes into an erosion→dilation chain, the opening, and a
// dilation→erosion chain, the closing, and into a ring of the last
// 2·max(rw, rs)+1 printed rows, which is as far as either chain lags:
// a pinch is a printed pixel the opening removes (printed AND NOT
// opened), a bridge a gap pixel the closing claims (closed AND NOT
// printed), and each residue row goes to its labeller as soon as its
// chain hands it on. What a window holds is those rings, a few
// kilobytes, whatever its size. A chain hands on row j flagged only
// when its first stage took printed rows j-2r-1..j+2r as one run, so
// the printed row is flagged too: the residue row equals the one before
// it, and goes on again, flagged, without being computed.
type detector struct {
	origin        geom.Point
	pitch         float64
	h             int
	printed       []uint64 // the ring of printed rows, row j in slot j % len(ext)
	ext           [][2]int
	open, close   *stage
	pinch, bridge residue
	walked, equal int
	out           []Hotspot
}

// residue is one kind's residue row, the last one computed, with its
// extent, and the labeller it goes to.
type residue struct {
	row    []uint64
	lo, hi int
	l      *labeller
}

// newDetector returns a detector of a w x h px window at origin and
// pitch. minWidth is the smallest acceptable printed linewidth and
// minSpace the smallest acceptable printed gap, both in nm.
func newDetector(w, h int, origin geom.Point, pitch float64, minWidth, minSpace int64) *detector {
	radius := func(nm int64) int { return max(int(float64(nm)/pitch/2+0.5), 1) }
	rw, rs := radius(minWidth), radius(minSpace)
	stride, n := (w+63)/64, min(2*max(rw, rs)+1, h)
	d := &detector{origin: origin, pitch: pitch, h: h,
		printed: make([]uint64, n*stride), ext: make([][2]int, n)}
	d.pinch = residue{row: make([]uint64, stride), l: newLabeller(w, d.keep(Pinch))}
	d.bridge = residue{row: make([]uint64, stride), l: newLabeller(w, d.keep(Bridge))}
	// Pinch: printed pixels removed by opening with a structuring
	// element just under minWidth.
	d.open = chain(d.pinched, newStage(erosion, rw, w, h), newStage(dilation, rw, w, h))
	// Bridge: gap pixels removed by closing with an element just under
	// minSpace — i.e. unprinted pixels that the closing claims.
	d.close = chain(d.bridged, newStage(dilation, rs, w, h), newStage(erosion, rs, w, h))
	return d
}

// keep returns the labeller's emit for a kind: each component's box in
// nm, single-pixel speckle from raster quantization ignored.
func (d *detector) keep(kind HotspotKind) func(i0, i1, j0, j1 int) {
	return func(i0, i1, j0, j1 int) {
		b := pixelRect(d.origin, d.pitch, i0, i1, j0, j1)
		if b.Width() > int64(d.pitch) || b.Height() > int64(d.pitch) {
			d.out = append(d.out, Hotspot{Kind: kind, Box: b})
		}
	}
}

// printedRow returns the ring row that holds printed row j.
func (d *detector) printedRow(j int) []uint64 {
	k, stride := j%len(d.ext), len(d.pinch.row)
	return d.printed[k*stride : (k+1)*stride]
}

// push takes printed row j.
func (d *detector) push(j int, row []uint64, lo, hi int, same bool) {
	d.walked += hi - lo
	if same {
		d.equal++
	}
	slot, e := d.printedRow(j), &d.ext[j%len(d.ext)]
	clearOutside(slot, e[0], e[1], lo, hi)
	copy(slot[lo:hi], row[lo:hi])
	*e = [2]int{lo, hi}
	d.open.push(j, row, lo, hi, same)
	d.close.push(j, row, lo, hi, same)
}

// pinched labels printed row j AND NOT opened row j; the opening lies
// inside the printed region, so its extent does too.
func (d *detector) pinched(j int, opened []uint64, _, _ int, same bool) {
	if !same {
		p, e, res := d.printedRow(j), d.ext[j%len(d.ext)], d.pinch.row
		for i := e[0]; i < e[1]; i++ {
			res[i] = p[i] &^ opened[i]
		}
		d.pinch.lo, d.pinch.hi = trim(res, e[0], e[1])
	}
	d.pinch.l.push(j, d.pinch.row, d.pinch.lo, d.pinch.hi, same)
}

// bridged labels closed row j AND NOT printed row j; the closing covers
// the printed region, so its extent covers the printed row's.
func (d *detector) bridged(j int, closed []uint64, lo, hi int, same bool) {
	if !same {
		p, res := d.printedRow(j), d.bridge.row
		for i := lo; i < hi; i++ {
			res[i] = closed[i] &^ p[i]
		}
		d.bridge.lo, d.bridge.hi = trim(res, lo, hi)
	}
	d.bridge.l.push(j, d.bridge.row, d.bridge.lo, d.bridge.hi, same)
}

// finish drains both chains once the window's last row is in and
// returns the sites in SortHotspots order.
func (d *detector) finish() []Hotspot {
	d.open.finish()
	d.close.finish()
	d.pinch.l.finish(d.h)
	d.bridge.l.finish(d.h)
	cWordsWalked.Add(int64(d.walked))
	cWordsSpanned.Add(int64(d.h * len(d.pinch.row)))
	cRowsEqual.Add(int64(d.equal))
	SortHotspots(d.out)
	return d.out
}

// detectPrinted renders rm's window under o.Cond and streams its
// printed rows through a detector at o's thresholds. The detector runs
// in the render's sink, so its time is inside litho.simulate.ns;
// litho.hotspot.detect.ns is its share, clocked row by row, and only
// while recording.
func detectPrinted(ctx context.Context, rm *RasterMask, o ScanOpts) ([]Hotspot, error) {
	w, h := gridDims(rm.window, rm.pitch)
	d := newDetector(w, h, rm.window.LL(), rm.pitch, o.MinWidth, o.MinSpace)
	if !obs.Enabled() {
		if err := rm.printedRows(ctx, o.Cond, d.push); err != nil {
			return nil, err
		}
		return d.finish(), nil
	}
	var spent time.Duration
	err := rm.printedRows(ctx, o.Cond, func(j int, row []uint64, lo, hi int, same bool) {
		t0 := time.Now()
		d.push(j, row, lo, hi, same)
		spent += time.Since(t0)
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	found := d.finish()
	hDetectNS.Observe(float64(spent + time.Since(t0)))
	return found, nil
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

// ScanDefaults returns the minWidth/minSpace thresholds a scan uses
// when ScanOpts leaves them zero: 60% of the layer's design rules, the
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
// ScanDefaults; Cond passes through as given, and must have a positive
// dose — its zero value is dose 0, not the nominal corner (Nominal).
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
	return geom.CoversPoint(drawn, pa) && geom.CoversPoint(drawn, pb)
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
// SortHotspots order. Callers scanning several windows merge them
// with StitchWindows. rs must hold every shape
// reaching the padded window. A dose that is not positive is an error.
func ScanWindowCtx(ctx context.Context, rs []geom.Rect, win geom.Rect, t *tech.Tech, layer tech.Layer, o ScanOpts) ([]Hotspot, error) {
	if !(o.Cond.Dose > 0) {
		// Nothing prints at dose 0 or below: a scan there would report a
		// clean window it never looked at.
		return nil, fmt.Errorf("litho: scan dose %g not positive", o.Cond.Dose)
	}
	o = o.resolve(t, layer)
	sp := hScanNS.Start()
	defer sp.End()
	cScanWindows.Inc()
	found, err := detectPrinted(ctx, NewRasterMask(rs, win.Bloat(ScanPadNM), t.Optics, o.Cond.Defocus), o)
	if err != nil {
		return nil, err
	}
	var out []Hotspot
	for _, h := range found {
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

// ScanLayer simulates a full layer window by window and returns all
// hotspots: ScanGrid over the layer's bbox, ScanWindowCtx per window,
// then StitchWindows. Windows bound memory on large blocks; the
// simulation pad makes their seams invisible. The context is checked
// per window (and per band inside each window's render); a canceled
// scan returns nil and the context error.
func ScanLayer(ctx context.Context, rs []geom.Rect, t *tech.Tech, layer tech.Layer, o ScanOpts) ([]Hotspot, error) {
	wins := ScanGrid(geom.BBoxOf(rs))
	perWin := make([][]Hotspot, len(wins))
	for i, win := range wins {
		hs, err := ScanWindowCtx(ctx, rs, win, t, layer, o)
		if err != nil {
			return nil, err
		}
		perWin[i] = hs
	}
	return StitchWindows(perWin), nil
}

// StitchWindows merges per-window scan results given in ScanGrid
// order. The window pad makes a seam hotspot visible whole from both
// sides; the first window in scan order to report a box keeps it, and
// the result is in SortHotspots order. Every engine that scans a layer
// window by window stitches through here.
func StitchWindows(perWin [][]Hotspot) []Hotspot {
	seen := make(map[geom.Rect]bool)
	var out []Hotspot
	for _, hs := range perWin {
		for _, h := range hs {
			if seen[h.Box] {
				continue
			}
			seen[h.Box] = true
			out = append(out, h)
		}
	}
	SortHotspots(out)
	return out
}
