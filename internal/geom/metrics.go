package geom

import "repro/internal/obs"

// Sweep-engine instrumentation. Counters sit on per-operation (not
// per-event) paths and record through cached pointers whose disabled
// fast path is a single atomic load — see internal/obs.
var (
	// One increment per scanline sweep with events to process: each
	// boolean op, UnionAll and area query, and each Normalize, AreaOf
	// or ClipArea whose input is not already in normal form.
	cSweepOps = obs.C("geom.sweep.ops")

	// Total y-events processed (two per input rect: top and bottom).
	cSweepEvents = obs.C("geom.sweep.events")

	// Scanline width: the widest active-interval set seen during each
	// operation, a direct read of layer density under the sweep.
	hSweepWidth = obs.Default().Histogram("geom.sweep.width",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384})

	// Scratch-pool accounting: reuse = sweeper served from the pool,
	// alloc = fresh construction (pool empty).
	cSweepPoolReuse = obs.C("geom.sweep.pool.reuse")
	cSweepPoolAlloc = obs.C("geom.sweep.pool.alloc")
)

// What IndexOf lays out: bins in the grids it built, and those of them
// that hold an item. The gap is what a sparse extent (a tile holding a
// few chip-long routes) pays for in empty bins.
var (
	cIndexBinsLaid     = obs.C("geom.index.bins.laid")
	cIndexBinsOccupied = obs.C("geom.index.bins.occupied")
)
