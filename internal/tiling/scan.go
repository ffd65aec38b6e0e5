package tiling

import (
	"context"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/litho"
)

// Stage-B scan driver shared by Evaluate, DistEvaluate, EvaluateDelta
// and EvaluateFlat. The engines differ only in how a window's rects are
// produced (hierarchy extraction vs flat filter), how one window is
// computed exactly (the run-unit step vs direct simulation), and
// whether a prior snapshot already answers some windows; all three are
// injected as a scanSource, so window enumeration, the empty-window
// shortcut and stitching order are one code path, and the flat twin
// stays an exact differential oracle for every engine.

// scanSource is the engine-specific half of one layer's scan.
type scanSource struct {
	// rects returns window i's layer rects over its extraction-padded
	// reach.
	rects func(i int) []geom.Rect
	// exec computes one non-empty window exactly and returns the kept
	// hotspots in the chip frame. Implementations handle their own
	// caching and remote dispatch.
	exec func(win geom.Rect, rs []geom.Rect) ([]litho.Hotspot, error)
	// reuse, when set, reports a prior result that still stands for
	// window i.
	reuse func(i int) ([]litho.Hotspot, bool)
}

// scanLayer runs one layer's scan and stitches it into res: hotspots
// and the window counts. Every window is computed exactly, except those
// a prior snapshot still answers: a reused window costs neither
// extraction nor computation. EmptyWindows counts recomputed-empty
// windows only (reused windows keep whatever they measured before —
// Stats describe work done, not the result). It returns the per-window
// results for snapshots to retain.
func scanLayer(ctx context.Context, workers int, sp *scanPlan, res *Result, src scanSource) ([][]litho.Hotspot, error) {
	res.Hotspots[sp.layer] = nil
	if len(sp.swins) == 0 {
		return nil, nil
	}
	perWin := make([][]litho.Hotspot, len(sp.swins))
	var empty, reused atomic.Int64
	err := harness.ForEachErr(ctx, workers, len(sp.swins), func(i int) error {
		if src.reuse != nil {
			if hs, ok := src.reuse(i); ok {
				reused.Add(1)
				perWin[i] = hs
				return nil
			}
		}
		rs := src.rects(i)
		if len(rs) == 0 {
			// Nothing can reach this window's raster: the flat
			// simulation of it is identically zero.
			empty.Add(1)
			return nil
		}
		hs, err := src.exec(sp.swins[i], rs)
		perWin[i] = hs
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Windows += len(sp.swins)
	res.Stats.EmptyWindows += int(empty.Load())
	res.Stats.SplicedWindows += int(reused.Load())
	// Windows in scan order through the seam rule litho.ScanLayer
	// applies.
	res.Hotspots[sp.layer] = litho.StitchWindows(perWin)
	return perWin, nil
}

// rectsTouching filters a flat layer to the shapes reaching win with
// the extractor's closed-interval predicate, so the flat engine scans
// each window over the exact multiset extraction produces.
func rectsTouching(rs []geom.Rect, win geom.Rect) []geom.Rect {
	var out []geom.Rect
	for _, r := range rs {
		if touches(r, win) {
			out = append(out, r)
		}
	}
	return out
}
