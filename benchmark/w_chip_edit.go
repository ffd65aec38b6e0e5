package main

import (
	"context"
	"fmt"

	"repro/internal/drc"
	"repro/internal/layout"
	"repro/internal/repair"
	"repro/internal/tech"
	"repro/internal/tiling"
	"repro/internal/yield"
)

// chipEdit is the in-design loop: a scored baseline, then repair fixes
// applied one at a time, each checked for legality, applied, and
// re-scored through the incremental engine.
type chipEdit struct {
	chip
	pad int64

	snap  *tiling.Snapshot
	fixes []repair.Fix

	last    *tiling.Result
	lastTop *layout.Cell
}

func (w *chipEdit) setup(ctx context.Context) (err error) {
	tr := w.cfg.tr
	err = w.generate(layout.ChipOpts{
		TargetRects: w.cfg.sizes.editRects, Defects: 8, RepairDefects: w.cfg.sizes.editDefects,
	}, signoffOpts(w.cfg.workers))
	if err != nil {
		return err
	}
	w.pad = 3 * tiling.MinHalo(w.t) // repair.Run's legality margin
	var res *tiling.Result
	tr.in("tiling.evaluate_snap", rootSpan, func(int) { res, w.snap, err = tiling.EvaluateSnap(ctx, w.t, w.ex, w.opts) })
	if err != nil {
		return fmt.Errorf("baseline snapshot: %w", err)
	}
	var sc repair.Score
	tr.in("repair.score", rootSpan, func(int) { sc = w.score(res, w.top) })
	tr.in("repair.propose", rootSpan, func(int) { w.fixes, _, err = repair.Propose(ctx, w.t, w.top, sc, repair.Weights{}) })
	if err != nil {
		return fmt.Errorf("propose: %w", err)
	}
	if n := w.cfg.sizes.editFixes; len(w.fixes) < n {
		return fmt.Errorf("only %d fixes proposed, the pass applies %d", len(w.fixes), n)
	}
	return nil
}

func (w *chipEdit) score(res *tiling.Result, top *layout.Cell) repair.Score {
	singles, _ := yield.CountViaRedundancy(top.Shapes, w.t)
	return repair.ScoreResult(res, singles, repair.Weights{})
}

func (w *chipEdit) describe() string {
	return fmt.Sprintf("%d rects, %d x %d slots, %d fixes proposed, %d applied per pass", w.info.Rects, w.info.Slots, w.info.Slots, len(w.fixes), w.cfg.sizes.editFixes)
}

// editStats is what the edits of one pass did.
type editStats struct {
	applied        []repair.Fix
	rejected       int
	spliced, tiles int
	score          float64
}

// applyFixes runs the edit cycle for the first n fixes, starting from
// the baseline: apply, legality check, new extractor, delta
// evaluation, re-score. A fix that no longer fits or would add a
// violation is rejected, as repair.Run rejects it; that is not a
// failure.
func (w *chipEdit) applyFixes(ctx context.Context, n int) (st editStats, err error) {
	tr := w.cfg.tr
	cur, snap := w.top, w.snap
	for i, f := range w.fixes[:n] {
		if tr != nil {
			tr.pass = i
		}
		edit := tr.begin("bench.edit", rootSpan)
		var cand *layout.Cell
		tr.in("repair.apply", edit, func(int) { cand, err = repair.Apply(cur, f.Delta) })
		if err != nil {
			st.rejected++
			tr.end(edit)
			continue
		}
		var fresh int
		tr.in("repair.legality", edit, func(int) {
			vs, e := repair.NewViolations(ctx, w.t, cur, cand, f.Delta, w.pad)
			fresh, err = len(vs), e
		})
		if err != nil {
			return st, fmt.Errorf("fix %d legality: %w", i, err)
		}
		if fresh > 0 {
			st.rejected++
			tr.end(edit)
			continue
		}
		var ex *tiling.Extractor
		tr.in("tiling.extractor_build", edit, func(int) { ex = tiling.NewExtractor(cand) })
		var res *tiling.Result
		tr.in("tiling.evaluate_delta", edit, func(int) { res, snap, err = tiling.EvaluateDelta(ctx, w.t, ex, snap, f.Delta.Rects()) })
		if err != nil {
			return st, fmt.Errorf("fix %d delta: %w", i, err)
		}
		tr.in("repair.score", edit, func(int) { st.score = w.score(res, cand).Total })
		tr.end(edit)
		cur, w.last, w.lastTop = cand, res, cand
		st.applied = append(st.applied, f)
		st.spliced += res.Stats.SplicedTiles
		st.tiles += res.Stats.Tiles
	}
	if len(st.applied) == 0 {
		return st, fmt.Errorf("none of the %d fixes could be applied", n)
	}
	return st, nil
}

func (w *chipEdit) pass(ctx context.Context, m *meter) (passOut, error) {
	n := w.cfg.sizes.editFixes
	var st editStats
	err := m.measure(func() (err error) {
		st, err = w.applyFixes(ctx, n)
		return err
	})
	if err != nil {
		return passOut{units: n}, err
	}
	return passOut{
		digest: digest(w.last), units: n,
		note: fmt.Sprintf("%d fixes applied, %d rejected, score %.1f, %d of %d tiles spliced", len(st.applied), st.rejected, st.score, st.spliced, st.tiles),
	}, nil
}

// verify requires the last incremental result to equal a from-scratch
// evaluation of the edited layout.
func (w *chipEdit) verify(ctx context.Context) ([]check, error) {
	o := w.opts
	o.Cache = tiling.NewCache(0)
	full, err := tiling.EvaluateChip(ctx, w.t, w.lastTop, o)
	if err != nil {
		return nil, err
	}
	return []check{{"final delta result equals from-scratch evaluation", tiling.Equivalent(w.last, full)}}, nil
}

func (w *chipEdit) layers(ctx context.Context, lm layerMetrics) error {
	tr := w.cfg.tr
	if err := w.setup(ctx); err != nil {
		return err
	}
	lm["layout.rects"] = float64(w.info.Rects)
	lm["repair.propose_s"] = sumByName(tr.spans, nil, "repair.propose")
	setupSpans := len(tr.spans)
	before := counters()
	st, err := w.applyFixes(ctx, w.cfg.sizes.editFixes)
	if err != nil {
		return err
	}
	tr.pass = 0
	counterMetrics(before, lm)
	edits := tr.spans[setupSpans:]
	lm["tiling.extractor_build_s"] = sumByName(edits, nil, "tiling.extractor_build")
	lm["repair.apply_s"] = sumByName(edits, nil, "repair.apply")
	lm["repair.legality_s"] = sumByName(edits, nil, "repair.legality")
	lm["repair.score_s"] = sumByName(edits, nil, "repair.score")
	lm["repair.fixes_applied"], lm["repair.fixes_rejected"] = float64(len(st.applied)), float64(st.rejected)
	deltas := durationsMS(edits, "tiling.evaluate_delta")
	lm["tiling.delta_p50_ms"], lm["tiling.delta_max_ms"] = median(deltas), maxOf(deltas)
	lm["tiling.delta_spliced_ratio"] = ratio(float64(st.spliced), float64(st.tiles))
	lm["drc.violations"] = float64(len(w.last.Violations))

	// The base of delta_vs_full: one from-scratch evaluation of the
	// edited layout, no cache, same single worker.
	o := w.opts
	var full *tiling.Result
	fullS := tr.in("tiling.evaluate", rootSpan, func(int) { full, err = tiling.EvaluateChip(ctx, w.t, w.lastTop, o) }).Seconds()
	if err != nil {
		return err
	}
	if !tiling.Equivalent(w.last, full) {
		return fmt.Errorf("final delta result differs from the from-scratch evaluation")
	}
	lm["tiling.delta_vs_full"] = ratio(fullS*1e3, lm["tiling.delta_p50_ms"])

	// What the deltas computed: the tiles each fix dirtied, extracted
	// and checked again through the public functions. What is left of
	// the delta time is the engine's own: splice, stitch, sort.
	g := cutGrid(w.snap.Die(), w.opts)
	cur := w.top
	tr.in("bench.replay_dirty", rootSpan, func(parent int) {
		for _, f := range st.applied {
			if cur, err = repair.Apply(cur, f.Delta); err != nil {
				return
			}
			ex := tiling.NewExtractor(cur)
			var dens []tech.Layer
			for _, r := range drc.DensityDeck(w.t, w.opts.DensityWindow).Rules {
				if l := r.(drc.DensityWindow).Layer; !ex.LayerBBox(l).Empty() {
					dens = append(dens, l)
				}
			}
			for _, i := range w.snap.InvalidatedTiles(f.Delta.Rects()) {
				var shapes []layout.Shape
				tr.in("tiling.extract", parent, func(int) { shapes = ex.AppendShapes(g.padded[i], nil) })
				replayTile(ctx, tr, parent, w.t, shapes, dens, g.wins[i])
			}
		}
	})
	if err != nil {
		return err
	}
	var replayed float64
	for _, name := range []string{"tiling.extract", "geom.normalize", "drc.deck", "drc.density"} {
		lm[name+"_s"] = sumByName(tr.spans, nil, name)
		replayed += lm[name+"_s"]
	}
	lm["tiling.self_s"] = sumByName(edits, nil, "tiling.evaluate_delta") - replayed
	return nil
}
