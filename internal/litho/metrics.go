package litho

import (
	"fmt"

	"repro/internal/obs"
)

// Kernel instrumentation. Every counter here sits on a per-call (not
// per-pixel) path, and each records through a cached pointer whose
// disabled fast path is a single atomic load — see internal/obs.
var (
	// Raster-cache accounting: one hit or miss per simulation request
	// against a RasterMask (a miss is a convolution stack actually
	// run, including the uncached SimulateCtx path). The per-|defocus|
	// split is recorded under "litho.raster.cache.{hit,miss}|f=<nm>".
	cRasterHit  = obs.C("litho.raster.cache.hit")
	cRasterMiss = obs.C("litho.raster.cache.miss")

	// Pooled-buffer accounting: reuse = served from the pool, alloc =
	// fresh make (pool empty or pooled array too small).
	cPoolReuse = obs.C("litho.pool.reuse")
	cPoolAlloc = obs.C("litho.pool.alloc")

	// Blur passes run: one per kernel sigma per simulated field, plus
	// one per GaussianBlur call. blur.sparse counts the former alone —
	// the per-rect separable decomposition (sparse.go) every RasterMask
	// pass takes.
	cBlurPasses = obs.C("litho.blur.passes")
	cBlurSparse = obs.C("litho.blur.sparse")

	// Band occupancy: of the 64-column groups a band of the padded grid
	// offers, how many a rect's footprint reached. The rest are neither
	// thresholded nor cleared, so touched/offered is the share of a
	// render's per-pixel work that was done. One add per band.
	cGroupsTouched = obs.C("litho.band.groups.touched")
	cGroupsOffered = obs.C("litho.band.groups.offered")

	// Convolution-stack latency (cache misses only; hits cost a map
	// lookup).
	hSimulateNS = obs.H("litho.simulate.ns")

	// Hotspot-scan accounting: exact scan windows simulated, hotspots
	// attributed after seam dedup rules, pinch markers dropped by the
	// interior-defect filter, and per-window scan latency. A window's
	// scan.ns is its simulate.ns (amplitude + threshold sink) plus its
	// detect.ns (morphology + blobs) plus the marker filters. Surrogate
	// gating counters live beside these under
	// litho.hotspot.surrogate.* (internal/surrogate).
	cScanWindows  = obs.C("litho.hotspot.windows")
	cScanFound    = obs.C("litho.hotspot.found")
	cScanInterior = obs.C("litho.hotspot.interior.dropped")
	hScanNS       = obs.H("litho.hotspot.scan.ns")
	hDetectNS     = obs.H("litho.hotspot.detect.ns")

	// Bitmap occupancy per detect call: the words between each row's
	// first and last non-zero word of the printed bitmap — what every
	// pass of the morphology walks, before its margin — against the
	// words the bitmap spans. Counted only while recording is on.
	cWordsWalked  = obs.C("litho.hotspot.words.walked")
	cWordsSpanned = obs.C("litho.hotspot.words.spanned")
)

// countPerDefocus records the per-|defocus| split of a cache hit or
// miss. The formatted name lookup only happens while recording is on.
func countPerDefocus(base string, f float64) {
	if !obs.Enabled() {
		return
	}
	obs.C(fmt.Sprintf("%s|f=%g", base, f)).Inc()
}
