package tiling

import "repro/internal/obs"

// Per-unit latency, and the stitch's: the one serial step of stage A,
// once per evaluation in every engine. Counts of units, shapes, cache
// answers, splices and seam merges live in Result.Stats only.
var (
	hTileNS   = obs.H("tiling.tile.ns")
	hWindowNS = obs.H("tiling.window.ns")
	hStitchNS = obs.H("tiling.stitch.ns")
)
