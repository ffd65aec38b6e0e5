package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/layout"
	"repro/internal/tiling"
)

// chipFleet sends the chip's units through a router to two in-process
// dfmd nodes on loopback ports. A pass is a fresh cluster, then pass A
// (cold fleet, fresh local cache: only unique tiles travel) and pass B
// (the same chip resubmitted with the local cache off: every non-empty
// tile travels and is answered from the nodes' caches).
type chipFleet struct {
	chip
	a, b *tiling.Result

	// wrap, when set, decorates the submitter of a pass; a test uses it
	// to fail one unit.
	wrap func(tiling.TileClient) tiling.TileClient
}

func (w *chipFleet) setup(ctx context.Context) error {
	return w.generate(layout.ChipOpts{TargetRects: w.cfg.sizes.fleetRects, Defects: 8}, signoffOpts(w.cfg.workers))
}

func (w *chipFleet) describe() string {
	return fmt.Sprintf("%d rects, %d x %d slots, 2 nodes, tile %d halo %d", w.info.Rects, w.info.Slots, w.info.Slots, w.opts.Tile, w.opts.Halo)
}

// rig is one running cluster and the client aimed at its router.
type rig struct {
	cl   *fleet.Cluster
	hc   *http.Client
	tile tiling.TileClient
}

// startRig brings up two nodes and a router on loopback ephemeral ports
// and a submitter holding at most one connection per worker.
func (w *chipFleet) startRig() (*rig, error) {
	cl, err := fleet.Start(fleet.Options{Nodes: 2, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	if err := cl.WaitReady(10 * time.Second); err != nil {
		cl.Stop()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: w.cfg.workers, MaxIdleConnsPerHost: w.cfg.workers}}
	r := &rig{cl: cl, hc: hc}
	r.tile = &client.TileSubmitter{C: client.New(cl.URL, hc), Policy: client.NewRetryPolicy(4, w.cfg.seed)}
	return r, nil
}

func (r *rig) stop() {
	r.hc.CloseIdleConnections()
	r.cl.Stop()
}

func (w *chipFleet) pass(ctx context.Context, m *meter) (passOut, error) {
	r, err := w.startRig()
	if err != nil {
		return passOut{units: 1}, err
	}
	defer r.stop()
	tile := r.tile
	if w.wrap != nil {
		tile = w.wrap(tile)
	}
	oa, ob := w.opts, w.opts
	oa.Cache = tiling.NewCache(0)
	err = m.measure(func() (err error) {
		if w.a, err = tiling.DistEvaluate(ctx, w.t, w.ex, oa, tile); err != nil {
			return fmt.Errorf("pass A: %w", err)
		}
		if w.b, err = tiling.DistEvaluate(ctx, w.t, w.ex, ob, tile); err != nil {
			return fmt.Errorf("pass B: %w", err)
		}
		return nil
	})
	if err != nil {
		return passOut{units: 1}, err
	}
	sa, sb, rs := w.a.Stats, w.b.Stats, r.cl.RT.Stats()
	if sb.RemoteCached != sb.RemoteTiles {
		return passOut{units: 1}, fmt.Errorf("pass B: %d of %d resubmitted units answered from node caches", sb.RemoteCached, sb.RemoteTiles)
	}
	if rs.Failed != 0 {
		return passOut{units: 1}, fmt.Errorf("router failed %d requests", rs.Failed)
	}
	return passOut{
		digest: digest(w.a) + "/" + digest(w.b),
		units:  int(sa.RemoteTiles + sb.RemoteTiles),
		note: fmt.Sprintf("%d violations, A %d remote units, B %d remote (%d fleet-cached), router retries %d failovers %d",
			len(w.a.Violations), sa.RemoteTiles, sb.RemoteTiles, sb.RemoteCached, rs.Retries, rs.Failovers),
	}, nil
}

// verify requires both distributed passes to equal a local evaluation.
func (w *chipFleet) verify(ctx context.Context) ([]check, error) {
	o := w.opts
	o.Cache = tiling.NewCache(0)
	local, err := tiling.Evaluate(ctx, w.t, w.ex, o)
	if err != nil {
		return nil, err
	}
	cs := []check{
		{"pass A equals local evaluation", tiling.Equivalent(w.a, local)},
		{"pass B equals local evaluation", tiling.Equivalent(w.b, local)},
	}
	return append(cs, defectChecks(w.info, w.a)...), nil
}

func (w *chipFleet) layers(ctx context.Context, lm layerMetrics) error {
	tr := w.cfg.tr
	if err := w.setup(ctx); err != nil {
		return err
	}
	lm["layout.rects"] = float64(w.info.Rects)
	r, err := w.startRig()
	if err != nil {
		return err
	}
	defer r.stop()

	before := counters()
	oa, ob := w.opts, w.opts
	oa.Cache = tiling.NewCache(0)
	// A recorder in front of the submitter times every unit from the
	// client's side and keeps the requests.
	dist := func(name string, o tiling.Opts) (res *tiling.Result, rec *recorder, err error) {
		rec = &recorder{tr: tr, name: "client.unit", next: r.tile}
		tr.in(name, rootSpan, func(id int) {
			rec.parent = id
			res, err = tiling.DistEvaluate(ctx, w.t, w.ex, o, rec)
		})
		return res, rec, err
	}
	resA, recA, err := dist("tiling.evaluate", oa)
	if err != nil {
		return fmt.Errorf("pass A: %w", err)
	}
	counterMetrics(before, lm)
	unitMetrics(tr, resA, lm)
	lm["tiling.execute_tile_s"] = sumByName(tr.spans, nil, "client.unit")
	unitsA := durationsMS(tr.spans, "client.unit")
	resB, recB, err := dist("tiling.evaluate_resubmit", ob)
	if err != nil {
		return fmt.Errorf("pass B: %w", err)
	}
	all := durationsMS(tr.spans, "client.unit")
	lm["client.unit_p50_ms"] = median(unitsA)
	if p := tailPercentile(len(all)); p > 0 {
		lm["client.unit_tail_ms"] = percentile(all, p)
	}
	lm["client.cached_unit_p50_ms"] = median(all[len(unitsA):])
	if resB.Stats.RemoteCached != resB.Stats.RemoteTiles {
		return fmt.Errorf("pass B: %d of %d units answered from node caches", resB.Stats.RemoteCached, resB.Stats.RemoteTiles)
	}

	rs, ss := r.cl.RT.Stats(), r.cl.BackendSums()
	lm["router.retries"], lm["router.failovers"] = float64(rs.Retries), float64(rs.Failovers)
	lm["router.tile_reused_ratio"] = ratio(float64(rs.TileReused), float64(rs.TileJobs))
	lm["server.cache_hit_ratio"] = ratio(float64(ss.CacheHits), float64(ss.CacheHits+ss.CacheMisses))
	lm["server.deduped"], lm["server.shed"] = float64(ss.Deduped), float64(ss.Shed)
	lm["server.e2e_p50_ms"] = histP50MS("dfmd.e2e_ns")
	lm["harness.queue_wait_p50_ms"] = histP50MS("harness.queue_wait_ns")

	// What the router adds: the same cached units asked of the router
	// and of each node directly. A node that does not hold a unit
	// computes it on the first direct ask, so every unit is asked twice
	// and only the second, cached, answer is timed.
	sample := recB.reqs
	if len(sample) > 24 {
		sample = sample[:24]
	}
	var viaRouter, direct []float64
	node := client.New(r.cl.Nodes[0].URL(), r.hc)
	tr.in("bench.router_vs_direct", rootSpan, func(parent int) {
		for _, req := range sample {
			ask := func(name string, c tiling.TileClient) float64 {
				return tr.in(name, parent, func(int) {
					if _, _, e := c.EvalTile(ctx, req); e != nil && err == nil {
						err = e
					}
				}).Seconds() * 1e3
			}
			ask("client.direct_warm", node)
			direct = append(direct, ask("client.direct_unit", node))
			viaRouter = append(viaRouter, ask("client.routed_unit", r.tile))
		}
	})
	if err != nil {
		return fmt.Errorf("router vs direct: %w", err)
	}
	lm["router.added_p50_ms"] = median(viaRouter) - median(direct)

	timeExtraction(tr, w.ex, cutGrid(w.ex.BBox(), w.opts), lm)
	// The wire carries every unit of both passes; only pass A's, the
	// unique ones, were computed.
	if err := replayWire(tr, append(recA.reqs, recB.reqs...), lm); err != nil {
		return err
	}
	return replayCompute(ctx, tr, recA.reqs, lm)
}
