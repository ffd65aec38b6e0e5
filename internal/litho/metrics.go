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
	// run, including the one-shot Simulate path). The per-|defocus|
	// split is recorded under "litho.raster.cache.{hit,miss}|f=<nm>".
	cRasterHit  = obs.C("litho.raster.cache.hit")
	cRasterMiss = obs.C("litho.raster.cache.miss")

	// Where a miss's intensity grid came from: new = NewGrid, reused =
	// a grid the handle retired (Remask, or FEMatrix and the PV band
	// once they are done with a |defocus|) and renders over.
	cGridNew    = obs.C("litho.raster.grid.new")
	cGridReused = obs.C("litho.raster.grid.reused")

	// Pooled-buffer accounting: reuse = served from the pool, alloc =
	// fresh make (pool empty or pooled array too small).
	cPoolReuse = obs.C("litho.pool.reuse")
	cPoolAlloc = obs.C("litho.pool.alloc")

	// Blur passes run: one per kernel sigma per simulated field, plus
	// one per GaussianBlur call. blur.sparse counts the former alone —
	// the banded separable decomposition (sparse.go) every RasterMask
	// pass takes.
	cBlurPasses = obs.C("litho.blur.passes")
	cBlurSparse = obs.C("litho.blur.sparse")

	// The banded blur's work per pass over a band (sparse.go): rects =
	// rect footprints that reached the band and summed into a cluster,
	// updates = clusters, one rank-1 update each. rects/updates is how
	// many per-rect updates one banded update replaced. Added once per
	// band, never per rect.
	cBlurRects   = obs.C("litho.blur.rects")
	cBlurUpdates = obs.C("litho.blur.updates")

	// Which arm of the kernel's float loops a render ran (kernel.go): 1
	// for the AVX assembly, 0 for the Go loops — not amd64, or a CPU
	// without AVX, and a record from such a host says why it is slower.
	// Set once per render.
	gKernelSIMD = obs.G("litho.kernel.simd")

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
	// scan.ns is its simulate.ns (amplitude, threshold sink and the
	// streaming detector the sink feeds) plus the marker filters;
	// detect.ns (morphology and labelling) is the detector's share of
	// simulate.ns, clocked per row only while recording.
	cScanWindows  = obs.C("litho.hotspot.windows")
	cScanFound    = obs.C("litho.hotspot.found")
	cScanInterior = obs.C("litho.hotspot.interior.dropped")
	hScanNS       = obs.H("litho.hotspot.scan.ns")
	hDetectNS     = obs.H("litho.hotspot.detect.ns")

	// Printed-row occupancy per scan window: the words between each
	// printed row's first and last non-zero word — what the morphology
	// walks, before its margin — summed from the extents the row source
	// hands the detector, against rows × words per row.
	cWordsWalked  = obs.C("litho.hotspot.words.walked")
	cWordsSpanned = obs.C("litho.hotspot.words.spanned")

	// Printed rows the row source flagged as equal to the row before
	// them, which the detector's stages and labellers take for a copy or
	// for nothing (stream.go). One add per scan window.
	cRowsEqual = obs.C("litho.hotspot.rows.equal")
)

// countPerDefocus records the per-|defocus| split of a cache hit or
// miss. The formatted name lookup only happens while recording is on.
func countPerDefocus(base string, f float64) {
	if !obs.Enabled() {
		return
	}
	obs.C(fmt.Sprintf("%s|f=%g", base, f)).Inc()
}
