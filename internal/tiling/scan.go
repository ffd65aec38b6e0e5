package tiling

import (
	"context"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/litho"
	"repro/internal/surrogate"
	"repro/internal/tech"
)

// Stage-B scan driver shared by Evaluate, DistEvaluate, EvaluateDelta
// and EvaluateFlat. The engines differ only in how a window's rects are
// produced (hierarchy extraction vs flat filter), how one window is
// computed exactly (the run-unit step vs direct simulation), and
// whether a prior snapshot already answers some windows; all three are
// injected as a scanSource, so the plain and surrogate-gated control
// flow — window enumeration, sampling, training, gating, stitching
// order — is one code path and the flat twin stays an exact
// differential oracle for the gated engine too.

// scanSource is the engine-specific half of one layer's scan.
type scanSource struct {
	// rects returns window i's layer rects over its extraction-padded
	// reach; neighbor the adjacent routing layer's (gated scans only).
	rects, neighbor func(i int) []geom.Rect
	// exec computes one non-empty window exactly and returns the kept
	// hotspots in the chip frame. Implementations handle their own
	// caching and remote dispatch.
	exec func(win geom.Rect, rs []geom.Rect) ([]litho.Hotspot, error)
	// reuse, when set, reports a prior result that still stands for
	// window i (plain scans only — gating is chip-global, so a gated
	// run is never spliced).
	reuse func(i int) ([]litho.Hotspot, bool)
}

// layerScan is one layer's scan in flight: its plan, its source, and
// each window's kept hotspots (nil for empty and skipped windows).
type layerScan struct {
	*scanPlan
	scanSource
	workers int
	perWin  [][]litho.Hotspot
}

// scanLayer runs one layer's scan — plain, or surrogate-gated when
// o.Surrogate is set — and stitches it into res: hotspots, the
// calibration report, and the window counts. It returns the per-window
// results for snapshots to retain.
func scanLayer(ctx context.Context, o Opts, sp *scanPlan, res *Result, src scanSource) ([][]litho.Hotspot, error) {
	res.Hotspots[sp.layer] = nil
	if len(sp.swins) == 0 {
		return nil, nil
	}
	s := &layerScan{scanPlan: sp, scanSource: src, workers: o.Workers,
		perWin: make([][]litho.Hotspot, len(sp.swins))}
	var nEmpty, nReused int
	var err error
	if o.Surrogate != nil {
		var rep *surrogate.Report
		if rep, nEmpty, err = s.gated(ctx, *o.Surrogate); err == nil {
			res.Surrogate[sp.layer] = rep
			res.Stats.SurrSampled += rep.Sampled
			res.Stats.SurrSkipped += rep.Skipped
			res.Stats.SurrGuarded += rep.Guarded
			res.Stats.SurrExact += rep.Exact
		}
	} else {
		nEmpty, nReused, err = s.plain(ctx)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.Windows += len(sp.swins)
	res.Stats.EmptyWindows += nEmpty
	res.Stats.SplicedWindows += nReused
	// Windows in scan order with the same box-keyed seam dedup
	// ScanLayer applies, then the deterministic total order.
	res.Hotspots[sp.layer] = stitchWindows(s.perWin)
	return s.perWin, nil
}

// step computes window i exactly into its own slot — the one
// per-window step the plain loop and every gated pass fan out through.
func (s *layerScan) step(i int, rs []geom.Rect) error {
	hs, err := s.exec(s.swins[i], rs)
	if err != nil {
		return err
	}
	s.perWin[i] = hs
	return nil
}

// plain runs every non-empty window through step, except those a prior
// snapshot still answers: a reused window costs neither extraction nor
// computation. nEmpty counts recomputed-empty windows only (reused
// windows keep whatever they measured before — Stats describe work
// done, not the result).
func (s *layerScan) plain(ctx context.Context) (nEmpty, nReused int, err error) {
	var empty, reused atomic.Int64
	err = harness.ForEachErr(ctx, s.workers, len(s.swins), func(i int) error {
		if s.reuse != nil {
			if hs, ok := s.reuse(i); ok {
				cSpliceWindows.Inc()
				reused.Add(1)
				s.perWin[i] = hs
				return nil
			}
		}
		cWindows.Inc()
		rs := s.rects(i)
		if len(rs) == 0 {
			// Nothing can reach this window's raster: the flat
			// simulation of it is identically zero.
			cWindowsEmpty.Inc()
			empty.Add(1)
			return nil
		}
		return s.step(i, rs)
	})
	return int(empty.Load()), int(reused.Load()), err
}

// gated is the surrogate fast path: feature extraction over every
// non-empty window, exact simulation of a seed-deterministic sample to
// train the gate (with a held-out slice for calibration), then a gating
// pass where confidently-clean windows skip step entirely and
// everything guarded or uncertain falls through. The returned report
// carries the calibration measurements.
func (s *layerScan) gated(ctx context.Context, cfg surrogate.Config) (rep *surrogate.Report, nEmpty int, err error) {
	swins, failW, failS := s.swins, s.opts.MinWidth, s.opts.MinSpace
	n := len(swins)
	rects := make([][]geom.Rect, n)
	feats := make([]surrogate.Features, n)
	rep = &surrogate.Report{Windows: n}
	// exact fans step out over the listed windows, whose rects pass 1
	// retained.
	exact := func(idx []int) error {
		return harness.ForEachErr(ctx, s.workers, len(idx), func(k int) error {
			return s.step(idx[k], rects[idx[k]])
		})
	}

	// Pass 1: extract and featurize every window. Features come from
	// int64 accumulators over the rect multiset, so tiled and flat
	// extraction order cannot change a single gate decision.
	err = harness.ForEachErr(ctx, s.workers, n, func(i int) error {
		cWindows.Inc()
		rs := s.rects(i)
		if len(rs) == 0 {
			cWindowsEmpty.Inc()
			return nil
		}
		rects[i] = rs
		feats[i] = surrogate.WindowFeatures(swins[i], s.extPad, rs, s.neighbor(i), failW, failS)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var nonEmpty []int
	for i := range swins {
		if rects[i] == nil {
			nEmpty++
			continue
		}
		nonEmpty = append(nonEmpty, i)
	}
	rep.NonEmpty = len(nonEmpty)
	if len(nonEmpty) == 0 {
		return rep, nEmpty, nil
	}

	// Pass 2: exact ground truth on the deterministic sample.
	sampleIdx := surrogate.SampleIndices(cfg, len(nonEmpty))
	sampled := make(map[int]bool, len(sampleIdx))
	sample := make([]int, len(sampleIdx))
	for k, j := range sampleIdx {
		sample[k] = nonEmpty[j]
		sampled[nonEmpty[j]] = true
	}
	if err = exact(sample); err != nil {
		return nil, 0, err
	}
	surrogate.CSampled.Add(int64(len(sample)))
	rep.Sampled = len(sample)

	// Train/holdout split in sample order: every holdoutEvery-th
	// sampled window calibrates instead of training.
	const holdoutEvery = 3
	var trainX, holdX []surrogate.Features
	var trainY, holdY []float64
	for k, i := range sample {
		y := float64(len(s.perWin[i]))
		if (k+1)%holdoutEvery == 0 && len(sample) > holdoutEvery {
			holdX = append(holdX, feats[i])
			holdY = append(holdY, y)
		} else {
			trainX = append(trainX, feats[i])
			trainY = append(trainY, y)
		}
	}
	rep.Holdout = len(holdX)
	for _, y := range trainY {
		if y > 0 {
			rep.TrainDirty++
		}
	}
	for _, y := range holdY {
		if y > 0 {
			rep.HoldoutDirty++
		}
	}
	gate := surrogate.NewGate(trainX, trainY)
	surrogate.CTrained.Inc()
	rep.TClean = gate.TClean
	rep.MAPE, rep.Pearson, rep.Precision, rep.Recall = surrogate.Calibrate(gate, holdX, holdY)

	// Pass 3: gate the remainder. Decisions are made serially (they
	// are a model evaluation each); only the fall-through exact
	// simulations fan out.
	var toRun []int
	for _, i := range nonEmpty {
		if sampled[i] {
			continue
		}
		if gate.Skip(feats[i]) {
			surrogate.CSkip.Inc()
			rep.Skipped++
			continue
		}
		if surrogate.Guarded(feats[i]) {
			surrogate.CGuard.Inc()
			rep.Guarded++
		} else {
			surrogate.CFallback.Inc()
		}
		toRun = append(toRun, i)
	}
	rep.Exact = len(toRun)
	rep.SkipRate = float64(rep.Skipped) / float64(rep.NonEmpty)
	if err = exact(toRun); err != nil {
		return nil, 0, err
	}
	return rep, nEmpty, nil
}

// stitchWindows applies the scan-order seam dedup and canonical sort
// shared by every engine.
func stitchWindows(perWin [][]litho.Hotspot) []litho.Hotspot {
	seen := make(map[geom.Rect]bool)
	var out []litho.Hotspot
	for _, hs := range perWin {
		for _, h := range hs {
			if seen[h.Box] {
				continue
			}
			seen[h.Box] = true
			out = append(out, h)
		}
	}
	litho.SortHotspots(out)
	return out
}

// neighborLayer picks the adjacent routing layer whose geometry feeds
// the surrogate's cross-layer context features. Metal3 looks down —
// there is no Metal4 — and non-metal layers fall back to the next
// layer up.
func neighborLayer(l tech.Layer) tech.Layer {
	switch l {
	case tech.Metal1:
		return tech.Metal2
	case tech.Metal2:
		return tech.Metal3
	case tech.Metal3:
		return tech.Metal2
	default:
		if l+1 < tech.NumLayers {
			return l + 1
		}
		return l
	}
}

// rectsTouching filters a flat layer to the shapes reaching win with
// the extractor's closed-interval predicate, so the flat engine feeds
// the featurizer the exact multiset extraction produces.
func rectsTouching(rs []geom.Rect, win geom.Rect) []geom.Rect {
	var out []geom.Rect
	for _, r := range rs {
		if touches(r, win) {
			out = append(out, r)
		}
	}
	return out
}
