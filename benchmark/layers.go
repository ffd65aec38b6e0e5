package main

import (
	"context"
	"encoding/json"
	"sync"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// layerMetrics holds the per-layer numbers of one traced run, keyed by
// the names in the catalog. A metric a workload does not reach stays 0.
type layerMetrics map[string]float64

// recorder is a tiling.TileClient that computes every unit in-process
// through tiling.ExecuteTile, under a span, and keeps the request. It
// is how the traced run sees the units an evaluation is made of without
// touching the engine: DistEvaluate hands it exactly the tiles and
// windows that missed the cache. A non-nil next sends the unit there
// instead (the fleet), still timed and recorded.
type recorder struct {
	tr     *tracer
	parent int
	name   string // span name; "" names the span after the unit's stage
	next   tiling.TileClient

	mu   sync.Mutex
	reqs []*tiling.TileRequest
}

func (r *recorder) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	name := r.name
	if name == "" {
		name = "tiling.execute_" + req.Stage
	}
	id := r.tr.begin(name, r.parent)
	var (
		res    *tiling.TileResult
		served tiling.TileServed
		err    error
	)
	if r.next != nil {
		res, served, err = r.next.EvalTile(ctx, req)
	} else {
		res, err = tiling.ExecuteTile(ctx, req)
	}
	r.tr.end(id)
	r.mu.Lock()
	r.reqs = append(r.reqs, req)
	r.mu.Unlock()
	return res, served, err
}

// tracedEvaluate runs one evaluation under a "tiling.evaluate" span
// with every computed unit as a child span, and returns the units.
func tracedEvaluate(ctx context.Context, tr *tracer, t *tech.Tech, ex *tiling.Extractor, o tiling.Opts) (*tiling.Result, []*tiling.TileRequest, error) {
	rec := &recorder{tr: tr}
	var (
		res *tiling.Result
		err error
	)
	tr.in("tiling.evaluate", rootSpan, func(id int) {
		rec.parent = id
		res, err = tiling.DistEvaluate(ctx, t, ex, o, rec)
	})
	return res, rec.reqs, err
}

// replayWire pushes captured units one by one through what the wire
// and the serving tier do to every request before any computation:
// content hash, JSON encode and decode, and the server's own key.
func replayWire(tr *tracer, reqs []*tiling.TileRequest, lm layerMetrics) error {
	var err error
	var wireBytes int
	tr.in("bench.replay_wire", rootSpan, func(parent int) {
		for _, req := range reqs {
			tr.in("tiling.key_hash", parent, func(int) { _, err = req.Key() })
			if err != nil {
				return
			}
			var b []byte
			tr.in("tiling.wire_encode", parent, func(int) {
				b, err = json.Marshal(server.JobRequest{Kind: server.KindTile, Tile: req})
			})
			if err != nil {
				return
			}
			wireBytes += len(b)
			var back server.JobRequest
			tr.in("tiling.wire_decode", parent, func(int) { err = json.Unmarshal(b, &back) })
			if err != nil {
				return
			}
			tr.in("server.key", parent, func(int) { _, err = server.KeyForRequest(back) })
			if err != nil {
				return
			}
		}
	})
	for _, name := range []string{"tiling.key_hash", "tiling.wire_encode", "tiling.wire_decode", "server.key"} {
		lm[name+"_s"] = sumByName(tr.spans, nil, name)
	}
	lm["tiling.wire_request_mb"] = float64(wireBytes) / 1e6
	return err
}

// replayCompute pushes captured units one by one through the public
// functions a unit's computation is made of, each under its own span:
// normalisation, the rule deck and density for a tile, the litho
// kernel for a window.
func replayCompute(ctx context.Context, tr *tracer, reqs []*tiling.TileRequest, lm layerMetrics) error {
	var err error
	var windows int
	var windowAlloc uint64
	tr.in("bench.replay_compute", rootSpan, func(parent int) {
		for _, req := range reqs {
			t := req.Tech
			if req.Stage == tiling.StageWindow {
				a0 := readMetric(metricAllocs)
				tr.in("litho.scan_window", parent, func(int) {
					_, err = litho.ScanWindowCtx(ctx, req.Rects, geom.R(0, 0, req.WinW, req.WinH), &t, req.Layer,
						litho.ScanOpts{Cond: req.Cond, MinWidth: req.MinWidth, MinSpace: req.MinSpace, Interior: req.Interior})
				})
				if err != nil {
					return
				}
				windowAlloc += readMetric(metricAllocs) - a0
				windows++
				continue
			}
			if req.DRC {
				replayTile(ctx, tr, parent, &t, req.Shapes, req.DensityLayers, req.Windows)
			}
		}
	})
	for _, name := range []string{"geom.normalize", "drc.deck", "drc.density", "litho.scan_window"} {
		lm[name+"_s"] = sumByName(tr.spans, nil, name)
	}
	if windows > 0 {
		lm["litho.window_alloc_mb"] = float64(windowAlloc) / 1e6 / float64(windows)
	}
	return err
}

// replayTile computes one stage-A tile through the public functions the
// engine composes: normalisation (drc.NewContext is geom.Normalize per
// layer), the standard deck, and density over the tile's windows.
func replayTile(ctx context.Context, tr *tracer, parent int, t *tech.Tech, shapes []layout.Shape, dens []tech.Layer, wins []geom.Rect) {
	var tctx *drc.Context
	tr.in("geom.normalize", parent, func(int) { tctx = drc.NewContext(t, shapes) })
	tr.in("drc.deck", parent, func(int) { drc.StandardDeck(t).RunCtx(ctx, tctx, 1) })
	tr.in("drc.density", parent, func(int) {
		for _, l := range dens {
			for _, w := range wins {
				drc.DensityIn(tctx.Layers[l], w)
			}
		}
	})
}

// timeExtraction walks the benchmark's own copy of the tile grid and
// extracts every tile's padded window, the way the engine does.
func timeExtraction(tr *tracer, ex *tiling.Extractor, g tileGrid, lm layerMetrics) {
	var shapes int
	tr.in("bench.extraction", rootSpan, func(parent int) {
		for _, win := range g.padded {
			tr.in("tiling.extract", parent, func(int) { shapes += len(ex.AppendShapes(win, nil)) })
		}
	})
	lm["tiling.extract_s"] = sumByName(tr.spans, nil, "tiling.extract")
	lm["tiling.extract_amplification"] = float64(shapes) / float64(ex.Rects())
}

// unitMetrics fills the numbers every tiled workload shares from the
// traced evaluation: how many units there were, how many were computed,
// what the computed ones cost, and what the engine spent around them.
func unitMetrics(tr *tracer, res *tiling.Result, lm layerMetrics) {
	st := res.Stats
	hits, misses := st.TileHits+st.WindowHits, st.TileMisses+st.WindowMisses
	lm["tiling.units"] = float64(hits + misses)
	lm["tiling.units_computed"] = float64(misses)
	lm["tiling.tile_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	lm["tiling.execute_tile_s"] = sumByName(tr.spans, nil, "tiling.execute_tile") + sumByName(tr.spans, nil, "tiling.execute_window")
	lm["tiling.self_s"] = sumByName(tr.spans, selfTimes(tr.spans), "tiling.evaluate")
	lm["drc.violations"] = float64(len(res.Violations))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters reads the obs counters the traced run reports as deltas.
func counters() map[string]int64 { return obs.Default().Snapshot().Counters }

// counterMetrics turns obs counter movement since before into the geom
// and litho ratios.
func counterMetrics(before map[string]int64, lm layerMetrics) {
	now := counters()
	d := func(name string) float64 { return float64(now[name] - before[name]) }
	lm["geom.sweep_events"] = d("geom.sweep.events")
	lm["geom.sweep_pool_reuse_ratio"] = ratio(d("geom.sweep.pool.reuse"), d("geom.sweep.pool.reuse")+d("geom.sweep.pool.alloc"))
	lm["litho.pool_reuse_ratio"] = ratio(d("litho.pool.reuse"), d("litho.pool.reuse")+d("litho.pool.alloc"))
	lm["litho.blur_dense_share"] = ratio(d("litho.blur.dense"), d("litho.blur.dense")+d("litho.blur.sparse"))
	lm["opc.model_iterations"] = d("opc.model.iterations")
}

// histP50MS is the bucket-interpolated median of an obs nanosecond
// histogram, in milliseconds.
func histP50MS(name string) float64 {
	return obs.Default().Snapshot().Histograms[name].P50 / 1e6
}
