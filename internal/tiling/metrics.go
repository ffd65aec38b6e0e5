package tiling

import "repro/internal/obs"

// Per-unit latency. Counts of units, shapes, cache answers, splices and
// seam merges live in Result.Stats only.
var (
	hTileNS   = obs.H("tiling.tile.ns")
	hWindowNS = obs.H("tiling.window.ns")
)
