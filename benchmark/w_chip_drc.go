package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// chipDRC is the signoff path: DRC and density over a tiled chip with a
// fresh result cache every pass.
type chipDRC struct {
	chip
	last *tiling.Result
}

// chip is what every chip workload is built on: the generated hierarchy
// with its recorded sites, its extractor, and the evaluation options.
type chip struct {
	cfg  config
	t    *tech.Tech
	top  *layout.Cell
	info layout.ChipInfo
	ex   *tiling.Extractor
	opts tiling.Opts
}

// generate is the set-up every chip workload shares: generate the chip,
// build the extractor, each under its span when traced.
func (c *chip) generate(co layout.ChipOpts, opts tiling.Opts) (err error) {
	c.t, c.opts = tech.N45(), opts
	c.cfg.tr.in("layout.generate", rootSpan, func(int) { c.top, c.info, err = genChip(c.t, co, c.cfg.seed) })
	if err != nil {
		return err
	}
	c.cfg.tr.in("tiling.extractor_build", rootSpan, func(int) { c.ex = tiling.NewExtractor(c.top) })
	return nil
}

// evaluateFresh is one timed tiling.Evaluate on a fresh result cache.
func (c *chip) evaluateFresh(ctx context.Context, m *meter) (res *tiling.Result, err error) {
	o := c.opts
	o.Cache = tiling.NewCache(0)
	err = m.measure(func() (err error) {
		res, err = tiling.Evaluate(ctx, c.t, c.ex, o)
		return err
	})
	return res, err
}

func (w *chipDRC) setup(ctx context.Context) error {
	return w.generate(layout.ChipOpts{TargetRects: w.cfg.sizes.drcRects, Defects: 8}, signoffOpts(w.cfg.workers))
}

func (w *chipDRC) describe() string {
	return fmt.Sprintf("%d rects, %d x %d slots, tile %d halo %d", w.info.Rects, w.info.Slots, w.info.Slots, w.opts.Tile, w.opts.Halo)
}

func (w *chipDRC) pass(ctx context.Context, m *meter) (passOut, error) {
	res, err := w.evaluateFresh(ctx, m)
	if err != nil {
		return passOut{units: 1}, err
	}
	w.last = res
	return passOut{digest: digest(res), units: res.Stats.Tiles, note: evalNote(res)}, nil
}

// evalNote is the log line of one tiled evaluation.
func evalNote(res *tiling.Result) string {
	st := res.Stats
	return fmt.Sprintf("%d violations, %d hotspots, tiles %d (%d empty, %d hit), windows %d (%d empty, %d hit)",
		len(res.Violations), hotspotCount(res), st.Tiles, st.EmptyTiles, st.TileHits, st.Windows, st.EmptyWindows, st.WindowHits)
}

// verify re-cuts the chip at another tile size, which moves every seam,
// and requires the same result; and requires every injected spacing
// defect to be reported.
func (w *chipDRC) verify(ctx context.Context) ([]check, error) {
	o := w.opts
	o.Tile, o.Halo, o.Cache = 12000, 3000, tiling.NewCache(0)
	recut, err := tiling.Evaluate(ctx, w.t, w.ex, o)
	if err != nil {
		return nil, err
	}
	cs := []check{{"tile 24000/halo 2000 equals tile 36000/halo 3000", tiling.Equivalent(w.last, recut)}}
	return append(cs, defectChecks(w.info, w.last)...), nil
}

// defectChecks requires a metal2 spacing violation over every injected
// defect gap.
func defectChecks(info layout.ChipInfo, res *tiling.Result) []check {
	var cs []check
	for i, box := range info.DefectBoxes {
		found := false
		for _, v := range res.Violations {
			if strings.HasPrefix(v.Rule, "metal2.space") && v.Marker.Overlaps(box) {
				found = true
				break
			}
		}
		cs = append(cs, check{fmt.Sprintf("injected defect %d reported as metal2.space", i), found})
	}
	return cs
}

func (w *chipDRC) layers(ctx context.Context, lm layerMetrics) error {
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

	// The same evaluation on the cache the traced one filled: what is
	// left when no unit is computed, the floor no DRC speed-up can pass.
	lm["tiling.warm_replay_s"] = tr.in("tiling.warm_replay", rootSpan, func(int) {
		_, err = tiling.Evaluate(ctx, w.t, w.ex, o)
	}).Seconds()
	if err != nil {
		return err
	}
	// And with no cache at all, the base the hit ratio saves from.
	o.Cache = nil
	lm["tiling.nocache_s"] = tr.in("tiling.nocache", rootSpan, func(int) {
		_, err = tiling.Evaluate(ctx, w.t, w.ex, o)
	}).Seconds()
	if err != nil {
		return err
	}
	timeExtraction(tr, w.ex, cutGrid(w.ex.BBox(), w.opts), lm)
	if err := replayWire(tr, reqs, lm); err != nil {
		return err
	}
	if err := replayCompute(ctx, tr, reqs, lm); err != nil {
		return err
	}
	tiles := durationsMS(tr.spans, "tiling.execute_tile")
	lm["drc.tile_p50_ms"], lm["drc.tile_max_ms"] = median(tiles), maxOf(tiles)
	return nil
}
