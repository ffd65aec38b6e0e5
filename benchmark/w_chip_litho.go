package main

import (
	"context"
	"fmt"

	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// chipLitho is the exact hotspot scan alone: every window is simulated,
// no rule deck runs. The chip holds logic and via-farm macros only and
// its slots are as small as those allow (the SRAM macro needs 19200), so
// that a pass is about a second: the kernel's cost follows the die area,
// 28000 nm square here, and hardly what is drawn on it.
type chipLitho struct {
	chip
	last *tiling.Result
}

func (w *chipLitho) setup(ctx context.Context) error {
	return w.generate(
		layout.ChipOpts{Slots: w.cfg.sizes.lithoSlots, SlotPitch: 14000, MacroMix: []int{0, 2, 2, 1}, HotspotDefects: 2},
		tiling.Opts{Workers: w.cfg.workers, Hotspots: []tech.Layer{tech.Metal1}, HotspotInterior: true})
}

func (w *chipLitho) describe() string {
	return fmt.Sprintf("%d rects, %d x %d slots, %d injected hotspot sites", w.info.Rects, w.info.Slots, w.info.Slots, len(w.info.HotspotSites))
}

func (w *chipLitho) pass(ctx context.Context, m *meter) (passOut, error) {
	res, err := w.evaluateFresh(ctx, m)
	if err != nil {
		return passOut{units: 1}, err
	}
	w.last = res
	return passOut{digest: digest(res), units: res.Stats.Windows, note: evalNote(res)}, nil
}

// verify requires the tiled scan to equal the flatten-everything scan
// and to report every injected hotspot site.
func (w *chipLitho) verify(ctx context.Context) ([]check, error) {
	flat, err := tiling.EvaluateFlat(ctx, w.t, w.top, w.opts)
	if err != nil {
		return nil, err
	}
	cs := []check{{"tiled scan equals flat scan", tiling.Equivalent(w.last, flat)}}
	for i, site := range w.info.HotspotSites {
		found := false
		for _, h := range w.last.Hotspots[site.Layer] {
			if h.Box.Overlaps(site.Box) {
				found = true
				break
			}
		}
		cs = append(cs, check{fmt.Sprintf("injected %s site %d found", site.Kind, i), found})
	}
	return cs, nil
}

func (w *chipLitho) layers(ctx context.Context, lm layerMetrics) error {
	tr := w.cfg.tr
	if err := w.setup(ctx); err != nil {
		return err
	}
	lm["layout.rects"] = float64(w.info.Rects)
	before := counters()
	o := w.opts
	o.Cache = tiling.NewCache(0)
	res, reqs, err := tracedEvaluate(ctx, tr, w.t, w.ex, o)
	if err != nil {
		return err
	}
	counterMetrics(before, lm)
	unitMetrics(tr, res, lm)
	wins := durationsMS(tr.spans, "tiling.execute_window")
	lm["litho.window_p50_ms"], lm["litho.window_max_ms"] = median(wins), maxOf(wins)
	lm["litho.windows_computed"] = float64(res.Stats.WindowMisses)
	lm["litho.window_hit_ratio"] = ratio(float64(res.Stats.WindowHits), float64(res.Stats.WindowHits+res.Stats.WindowMisses))
	return replayCompute(ctx, tr, reqs, lm)
}
