package tiling

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/drc"
	"repro/internal/fill"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/obs"
	"repro/internal/surrogate"
	"repro/internal/tech"
)

// Opts parameterizes a chip evaluation. The zero value of any field
// gets a sensible default at Evaluate; DefaultOpts spells them out.
type Opts struct {
	// Tile is the core tile edge, nm. Memory scales with (Tile +
	// 2*context pad)^2 worth of geometry; throughput prefers tiles
	// large enough to amortize per-tile normalization.
	Tile int64
	// Halo is the DRC context margin around each core tile, nm. Must
	// cover the largest rule interaction distance AND the largest
	// violation marker extent (MinHalo gives the rule floor; Evaluate
	// clamps up to it). Violations whose markers exceed the halo are
	// dropped at seams — keep it comfortably above marker scale.
	Halo int64
	// Workers bounds the tile/window fan-out (default GOMAXPROCS).
	Workers int

	// DRC runs the standard rule deck per tile.
	DRC bool
	// Density runs the density-window deck; DensityWindow is the
	// window edge (default 3000, the signoff default).
	Density       bool
	DensityWindow int64
	// KeepDensityMaps retains per-layer window density maps in the
	// result (O(#windows) memory; disable for 10^8-rect chips if the
	// violations alone suffice).
	KeepDensityMaps bool

	// Hotspots lists the layers to run the litho hotspot scan on.
	Hotspots []tech.Layer
	// HotspotCond is the exposure condition (default litho.Nominal).
	HotspotCond litho.Condition
	// HotspotInterior keeps only pinch markers interior to drawn
	// geometry (true necks), dropping line-end pull-back markers —
	// see litho.InteriorDefect. Bridges are unaffected.
	HotspotInterior bool
	// Surrogate enables the uncertainty-gated ML pre-filter on the
	// hotspot scan: a seed-deterministic model trained in-run on an
	// exactly-simulated sample decides which windows may skip
	// simulation; guarded and uncertain windows always fall through.
	// Part of the content address — changing it changes results.
	Surrogate *surrogate.Config

	// Cache enables evaluate-once-per-unique-content replay of tile
	// and scan-window results across repeated macro instances (and
	// across successive evaluations sharing the cache).
	Cache *Cache
	// MaxViolations caps the merged violation list (0 = unlimited).
	// ByRule counts stay complete; Result.Dropped reports the excess.
	MaxViolations int
}

// DefaultOpts returns the full signoff configuration: DRC + density +
// metal1 hotspot scan at nominal conditions, 24000nm tiles with a
// 2000nm halo.
func DefaultOpts() Opts {
	return Opts{
		Tile: 24000, Halo: 2000,
		DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true,
		Hotspots:    []tech.Layer{tech.Metal1},
		HotspotCond: litho.Nominal,
	}
}

func withDefaults(t *tech.Tech, o Opts) Opts {
	if o.Tile <= 0 {
		o.Tile = 24000
	}
	if o.Halo <= 0 {
		o.Halo = 2000
	}
	if h := MinHalo(t); o.Halo < h {
		o.Halo = h
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DensityWindow <= 0 {
		o.DensityWindow = 3000
	}
	if o.HotspotCond == (litho.Condition{}) {
		o.HotspotCond = litho.Nominal
	}
	return o
}

// MinHalo returns the smallest context margin that covers every rule
// interaction distance of the technology: facing-edge and corner
// scans reach MinSpace, enclosure tests reach the enclosure ring,
// min-area components of legal width span up to MinArea/MinWidth, and
// the endcap check dilates gates by 100nm each way.
func MinHalo(t *tech.Tech) int64 {
	var h int64 = 200 // endcap: 100nm dilation, both sides
	for l := tech.Layer(0); l < tech.NumLayers; l++ {
		r := t.Rules[l]
		h = max(h, r.MinWidth, r.MinSpace, r.ViaSpace,
			r.ViaSize+2*max(r.ViaEnclosure, r.ViaEncSide))
		if r.MinArea > 0 && r.MinWidth > 0 {
			h = max(h, r.MinArea/r.MinWidth)
		}
	}
	return h
}

// Stats reports how an evaluation ran.
type Stats struct {
	Die   geom.Rect
	Rects int64 // flattened rect count of the chip (never materialized)

	Tiles, EmptyTiles    int
	TileHits, TileMisses int64 // per-content cache outcomes, non-empty tiles

	Windows, EmptyWindows    int   // litho scan windows
	WindowHits, WindowMisses int64 // window-level cache outcomes

	// Incremental re-evaluation accounting (EvaluateDelta only): work
	// units whose halo-bloated windows missed the dirty region and
	// were spliced from the prior snapshot without extraction or
	// computation.
	SplicedTiles, SplicedWindows int

	// Surrogate gating outcomes, summed over scanned layers (gated
	// runs only): windows exactly simulated for training+holdout,
	// skipped as confidently clean, forced exact by fail-risk guards,
	// and sent to exact by model score (SurrExact includes
	// SurrGuarded).
	SurrSampled, SurrSkipped, SurrGuarded, SurrExact int

	ShapesExtracted int64 // total shapes handed to per-tile contexts
	Elapsed         time.Duration

	// Distributed submission accounting (DistEvaluate only):
	// RemoteTiles/RemoteWindows count work units submitted to the
	// fleet (empty units short-circuit locally and are never sent);
	// RemoteCached/RemoteDeduped count those the serving tier answered
	// from a node's result cache or collapsed into an identical
	// in-flight evaluation — fleet-wide dedupe, across chips.
	RemoteTiles, RemoteWindows  int64
	RemoteCached, RemoteDeduped int64
}

// Result is a stitched whole-chip evaluation.
type Result struct {
	// Violations is the merged, seam-deduped DRC + density violation
	// list in a deterministic total order, possibly truncated to
	// MaxViolations (Dropped counts the excess; ByRule never
	// truncates). Read-only, like Density: a Snapshot taken with the
	// result, and every delta chained from it, share the backing arrays.
	Violations []drc.Violation
	ByRule     map[string]int
	Dropped    int

	// Hotspots holds per-layer litho scan results, identical to
	// litho.ScanLayer over the flattened layer.
	Hotspots map[tech.Layer][]litho.Hotspot

	// Density holds per-layer window density maps (KeepDensityMaps).
	Density map[tech.Layer]fill.DensityMap

	// Surrogate holds the per-layer calibration report when the gated
	// fast path ran (Opts.Surrogate set).
	Surrogate map[tech.Layer]*surrogate.Report

	Stats Stats
}

// EvaluateChip evaluates the hierarchy under top tile-by-tile. See
// Evaluate for reusing a prepared Extractor across runs.
func EvaluateChip(ctx context.Context, t *tech.Tech, top *layout.Cell, o Opts) (*Result, error) {
	return Evaluate(ctx, t, NewExtractor(top), o)
}

// Evaluate runs the tiled chip evaluation: tiles fan out across
// harness.ForEachErr workers, each extracting only the geometry
// overlapping its halo-padded window and running the per-tile
// workhorses; seam stitching dedups the halo overlap so the merged
// result reproduces a flat evaluation exactly (for violations whose
// markers fit inside the halo — see Opts.Halo).
func Evaluate(stdctx context.Context, t *tech.Tech, ex *Extractor, o Opts) (*Result, error) {
	res, _, err := evaluate(stdctx, newPlan(t, ex, o), ex, nil, nil, nil)
	return res, err
}

// DistEvaluate is Evaluate with the per-unit computation farmed out to
// a dfmd fleet: the extractor still cuts and extracts every tile
// locally (extraction is a pruned hierarchy walk — cheap and
// impossible to distribute without shipping the chip), but each
// non-empty tile and scan window is submitted through rc, typically a
// client.TileSubmitter pointed at a dfmrouter, whose affinity ring
// routes the unit's content address to the node most likely to hold
// it cached. Opts.Workers bounds the in-flight submission window;
// per-unit retry and replica failover live in the TileClient (the
// router's breaker + retry-budget machinery). Results stream into the
// same stitcher as the local path, so the distributed result is
// bit-identical to single-process Evaluate — a lost or duplicated
// tile is structurally impossible (each unit settles into its own
// slot, and a unit that cannot be computed fails the run rather than
// stitching partially).
func DistEvaluate(stdctx context.Context, t *tech.Tech, ex *Extractor, o Opts, rc TileClient) (*Result, error) {
	if rc == nil {
		return nil, errors.New("tiling: DistEvaluate needs a TileClient")
	}
	res, _, err := evaluate(stdctx, newPlan(t, ex, o), ex, rc, nil, nil)
	return res, err
}

func newResult(o Opts) *Result {
	res := &Result{
		ByRule:   make(map[string]int),
		Hotspots: make(map[tech.Layer][]litho.Hotspot),
		Density:  make(map[tech.Layer]fill.DensityMap),
	}
	if o.Surrogate != nil {
		res.Surrogate = make(map[tech.Layer]*surrogate.Report)
	}
	return res
}

// evaluate is the engine behind Evaluate, DistEvaluate (units executed
// through remote) and EvaluateSnap/EvaluateDelta (p is prev's own plan,
// and units whose reach misses every changed rect are spliced from prev
// — see incremental.go): run every unit of the plan, stitch. The
// returned Snapshot is the plan plus the per-unit outputs and the
// stitched state the run produced anyway, so recording it costs nothing
// and every caller that does not want it drops it.
func evaluate(ctx context.Context, p *plan, ex *Extractor, remote TileClient,
	prev *Snapshot, changed []geom.Rect) (*Result, *Snapshot, error) {
	start := time.Now()
	res := newResult(p.opts)
	res.Stats.Die = p.die
	res.Stats.Rects = ex.Rects()
	snap := &Snapshot{plan: p}
	if !p.die.Empty() {
		e := &engine{plan: p, ex: ex, remote: remote, prev: prev, changed: changed,
			tiles:   unitCounts{cHit: cTileHit, cMiss: cTileMiss, cRemote: cRemoteTiles},
			windows: unitCounts{cHit: cWinHit, cMiss: cWinMiss, cRemote: cRemoteWindows}}
		var dirty []int
		var err error
		if snap.outs, dirty, err = e.runTiles(ctx); err != nil {
			return nil, nil, err
		}
		snap.st = p.stitchTiles(res, snap.outs, dirty, prev)
		if snap.perWin, err = e.runScans(ctx, res); err != nil {
			return nil, nil, err
		}
		e.report(&res.Stats)
	}
	res.Stats.Elapsed = time.Since(start)
	return res, snap, nil
}

// engine is one evaluation in flight: the plan, where its units are
// computed, what may be spliced instead, and the accounting the units
// report into.
type engine struct {
	*plan
	ex     *Extractor
	remote TileClient // nil: units are computed in-process

	// prev + changed splice units from a prior snapshot: a unit whose
	// padded extraction window misses every changed rect extracts an
	// unchanged multiset, and its computation is a pure function of
	// that, so its prior output is taken untouched.
	prev    *Snapshot
	changed []geom.Rect

	tiles, windows              unitCounts
	emptyTiles, shapes          atomic.Int64
	splicedTiles                int
	remoteCached, remoteDeduped atomic.Int64
}

// unitCounts is the per-stage half of the run-unit accounting.
type unitCounts struct {
	cHit, cMiss, cRemote *obs.Counter
	hits, misses, remote atomic.Int64
}

func (e *engine) report(st *Stats) {
	st.EmptyTiles = int(e.emptyTiles.Load())
	st.SplicedTiles = e.splicedTiles
	st.ShapesExtracted = e.shapes.Load()
	st.TileHits = e.tiles.hits.Load()
	st.TileMisses = e.tiles.misses.Load()
	st.RemoteTiles = e.tiles.remote.Load()
	st.WindowHits = e.windows.hits.Load()
	st.WindowMisses = e.windows.misses.Load()
	st.RemoteWindows = e.windows.remote.Load()
	st.RemoteCached = e.remoteCached.Load()
	st.RemoteDeduped = e.remoteDeduped.Load()
}

// runUnit takes one non-empty unit to its chip-frame output. The unit,
// its key, the fleet's or execute's answer and the cache entry all live
// in the unit's own frame (that is what makes them content-addressable),
// so the path is linear: key, cache, then the fleet or the execute a
// node would run, the answer stored as it came, and one translation to
// origin — where the unit sits on the chip — on the way out. This is
// the one place a unit is put in canonical order, and only a unit that
// is about to be keyed or shipped: a local, cache-less evaluation (every
// delta of an edit loop) has no use for an identity and pays no sort.
func (e *engine) runUnit(ctx context.Context, u *TileRequest, origin geom.Point) (*TileResult, error) {
	n := &e.tiles
	if u.Stage == StageWindow {
		n = &e.windows
	}
	cache := e.opts.Cache
	if cache != nil || e.remote != nil {
		u.canonicalize()
	}
	var key [sha256.Size]byte
	if cache != nil {
		key = u.key(e.cfg)
		if hit, ok := cache.lru.Get(key); ok {
			n.cHit.Inc()
			n.hits.Add(1)
			return hit.translate(origin), nil
		}
	}
	var out *TileResult
	var err error
	if e.remote != nil {
		n.cRemote.Inc()
		n.remote.Add(1)
		var served TileServed
		if out, served, err = e.remote.EvalTile(ctx, u); err == nil {
			err = absorbTileResult(out, u)
		}
		if err != nil {
			if u.Stage == StageTile {
				return nil, fmt.Errorf("tile at %v: %w", origin, err)
			}
			return nil, fmt.Errorf("%v scan window at %v: %w", u.Layer, origin, err)
		}
		if served.Cached {
			cRemoteCached.Inc()
			e.remoteCached.Add(1)
		}
		if served.Deduped {
			cRemoteDeduped.Inc()
			e.remoteDeduped.Add(1)
		}
	} else if out, err = u.execute(ctx, e.t, e.std, e.densRules); err != nil {
		return nil, err
	}
	if cache != nil {
		n.cMiss.Inc()
		n.misses.Add(1)
		cache.lru.Put(key, out)
	}
	return out.translate(origin), nil
}

// runTiles is stage A: one DRC + density output per tile of the grid.
// dirty lists, ascending, the tiles that were computed: all of them, or
// with a prior snapshot those a changed rect reaches — the rest are its
// outputs, taken untouched.
func (e *engine) runTiles(ctx context.Context) (outs []*TileResult, dirty []int, err error) {
	n := e.nx * e.ny
	cTiles.Add(int64(n))
	if e.prev != nil {
		outs, dirty = slices.Clone(e.prev.outs), e.dirtyTiles(e.changed)
		e.splicedTiles = n - len(dirty)
		cSpliceTiles.Add(int64(e.splicedTiles))
	} else {
		outs, dirty = make([]*TileResult, n), make([]int, n)
		for i := range dirty {
			dirty[i] = i
		}
	}
	err = harness.ForEachErr(ctx, e.opts.Workers, len(dirty), func(k int) error {
		sp := hTileNS.Start()
		defer sp.End()
		i := dirty[k]
		u, origin := e.tileUnit(i, e.ex)
		e.shapes.Add(int64(len(u.Shapes)))
		cShapes.Add(int64(len(u.Shapes)))
		if len(u.Shapes) == 0 {
			cTilesEmpty.Inc()
			e.emptyTiles.Add(1)
			// No geometry in reach: no DRC violations, all densities
			// zero — identical to what the flat run measures here. Empty
			// units never reach the cache or the fleet.
			dens := make([][]float64, len(e.densRules))
			for di := range dens {
				dens[di] = make([]float64, len(u.Windows))
			}
			outs[i] = &TileResult{Dens: dens}
			return nil
		}
		var err error
		outs[i], err = e.runUnit(ctx, u, origin)
		return err
	})
	return outs, dirty, err
}

// runScans is stage B: every hotspot layer's window scan, stitched into
// res by the scan driver shared with the flat engine (scan.go). The
// engine supplies the three things that differ between engines: how a
// window's rects are extracted, how one window is computed exactly
// (the run-unit step), and which windows a prior snapshot already
// answers.
func (e *engine) runScans(ctx context.Context, res *Result) ([][][]litho.Hotspot, error) {
	perWin := make([][][]litho.Hotspot, len(e.scans))
	for si := range e.scans {
		sp := &e.scans[si]
		reach := func(i int) geom.Rect { return sp.swins[i].Bloat(sp.extPad) }
		src := scanSource{
			rects:    func(i int) []geom.Rect { return e.ex.AppendLayerRects(reach(i), sp.layer, nil) },
			neighbor: func(i int) []geom.Rect { return e.ex.AppendLayerRects(reach(i), neighborLayer(sp.layer), nil) },
			exec: func(win geom.Rect, rs []geom.Rect) ([]litho.Hotspot, error) {
				span := hWindowNS.Start()
				defer span.End()
				out, err := e.runUnit(ctx, e.windowUnit(sp, win, rs), geom.Pt(win.X0, win.Y0))
				if err != nil {
					return nil, err
				}
				return out.Hotspots, nil
			},
		}
		if e.prev != nil {
			prior := e.prev.perWin[si]
			src.reuse = func(i int) ([]litho.Hotspot, bool) {
				return prior[i], !touchesAny(reach(i), e.changed)
			}
		}
		var err error
		if perWin[si], err = scanLayer(ctx, e.opts, sp, res, src); err != nil {
			return nil, err
		}
	}
	return perWin, nil
}

// computeTile runs the per-tile workhorses on an extracted context;
// core, padded, wins and the result share the shapes' frame.
func computeTile(ctx context.Context, t *tech.Tech, std *drc.Deck, densRules []drc.DensityWindow,
	shapes []layout.Shape, core, padded geom.Rect, wins []geom.Rect) (*TileResult, error) {
	tctx := drc.NewContext(t, shapes)
	out := &TileResult{}
	if std != nil {
		r := std.RunCtx(ctx, tctx, 1)
		if err := ctx.Err(); err != nil {
			// RunCtx returns a silently partial result on cancellation;
			// never let it into the stitch.
			return nil, err
		}
		out.Violations = keepViolations(r.Violations, core, padded)
	}
	out.Dens = make([][]float64, len(densRules))
	for di, dr := range densRules {
		ds := make([]float64, len(wins))
		for j, w := range wins {
			ds[j] = tctx.DensityIn(dr.Layer, w)
		}
		out.Dens[di] = ds
	}
	return out, nil
}

// keepViolations applies the seam rule: a tile owns a violation iff
// the marker overlaps its core AND sits strictly inside the padded
// window. The second clause drops truncation artifacts: any marker
// built from geometry whose context continues beyond the pad
// necessarily reaches the padded boundary (whole-shape extraction
// pulls boundary-crossing shapes in full), while every genuine
// violation that fits in the halo is strictly interior to some tile's
// pad — exactly one per seam after dedup.
func keepViolations(vs []drc.Violation, core, padded geom.Rect) []drc.Violation {
	var out []drc.Violation
	for _, v := range vs {
		m := v.Marker
		if !m.Overlaps(core) {
			continue
		}
		if m.X0 <= padded.X0 || m.Y0 <= padded.Y0 || m.X1 >= padded.X1 || m.Y1 >= padded.Y1 {
			continue
		}
		out = append(out, v)
	}
	return out
}

// EvaluateFlat is the flatten-everything twin of Evaluate: same
// stages, same options, computed on the materialized flat shape list.
// It exists as the differential oracle (tiled results must match it
// exactly) and as the honest baseline the streaming engine is
// benchmarked against. Memory is O(chip); do not call it on 10^7+
// rect layouts.
func EvaluateFlat(stdctx context.Context, t *tech.Tech, top *layout.Cell, o Opts) (*Result, error) {
	start := time.Now()
	o = withDefaults(t, o)
	flat := (&layout.Layout{Top: top}).Flatten()
	res := newResult(o)
	res.Stats.Rects = int64(len(flat))
	if len(flat) == 0 {
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}
	tctx := drc.NewContext(t, flat)
	var die geom.Rect
	for _, rs := range tctx.Layers {
		die = die.Union(geom.BBoxOf(rs))
	}
	res.Stats.Die = die

	var all []drc.Violation
	if o.DRC {
		r := drc.StandardDeck(t).RunCtx(stdctx, tctx, o.Workers)
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
		all = append(all, r.Violations...)
		for k, v := range r.ByRule {
			res.ByRule[k] += v
		}
	}
	if o.Density {
		r := drc.DensityDeck(t, o.DensityWindow).RunCtx(stdctx, tctx, o.Workers)
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
		all = append(all, r.Violations...)
		for k, v := range r.ByRule {
			res.ByRule[k] += v
		}
		if o.KeepDensityMaps {
			wins := drc.WindowGrid(die, o.DensityWindow, o.DensityWindow/2)
			for _, dr := range drc.DensityDeck(t, o.DensityWindow).Rules {
				dw := dr.(drc.DensityWindow)
				if len(tctx.Layers[dw.Layer]) == 0 {
					continue
				}
				dm := fill.DensityMap{Windows: wins, Density: make([]float64, len(wins))}
				_ = harness.ForEach(stdctx, o.Workers, len(wins), func(i int) {
					dm.Density[i] = tctx.DensityIn(dw.Layer, wins[i])
				})
				res.Density[dw.Layer] = dm
			}
			if err := stdctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	drc.SortViolations(all)
	if o.MaxViolations > 0 && len(all) > o.MaxViolations {
		res.Dropped = len(all) - o.MaxViolations
		all = all[:o.MaxViolations:o.MaxViolations]
	}
	res.Violations = all

	for _, hl := range o.Hotspots {
		if o.Surrogate == nil && !o.HotspotInterior {
			// Legacy exact path, kept verbatim as the oracle baseline.
			hs, err := litho.ScanLayerCtx(stdctx, tctx.Layers[hl], t, hl, o.HotspotCond, 0, 0)
			if err != nil {
				return nil, err
			}
			res.Hotspots[hl] = hs
			continue
		}
		// Shared stage-B driver (scan.go), window-local like the tiled
		// engine so features and gate decisions match it bit-for-bit.
		// Features must come from the raw drawn multiset — the extractor
		// emits whole shapes, while tctx.Layers is Normalize()d, which
		// changes rect counts, drawn widths, and gaps (the printed
		// raster is union-invariant, the featurizer is not).
		layerRs := rawLayerRects(flat, hl)
		var nbRs []geom.Rect
		if o.Surrogate != nil {
			nbRs = rawLayerRects(flat, neighborLayer(hl))
		}
		sp := newScanPlan(t, o, hl, geom.BBoxOf(layerRs))
		reach := func(i int) geom.Rect { return sp.swins[i].Bloat(sp.extPad) }
		if _, err := scanLayer(stdctx, o, &sp, res, scanSource{
			rects:    func(i int) []geom.Rect { return rectsTouching(layerRs, reach(i)) },
			neighbor: func(i int) []geom.Rect { return rectsTouching(nbRs, reach(i)) },
			exec: func(win geom.Rect, rs []geom.Rect) ([]litho.Hotspot, error) {
				return litho.ScanWindowCtx(stdctx, rs, win, t, hl, sp.opts)
			},
		}); err != nil {
			return nil, err
		}
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// rawLayerRects collects one layer's drawn rects from the flat shape
// list, un-normalized — the same whole-shape multiset the extractor's
// window walk produces.
func rawLayerRects(flat []layout.Shape, l tech.Layer) []geom.Rect {
	var out []geom.Rect
	for _, s := range flat {
		if s.Layer == l {
			out = append(out, s.R)
		}
	}
	return out
}

// Equivalent reports whether two results agree on every evaluation
// output — violations, rule counts, drop counts, hotspots, density
// maps. Stats are intentionally ignored: they describe how a result
// was computed, not what it is.
func Equivalent(a, b *Result) bool {
	return reflect.DeepEqual(a.Violations, b.Violations) &&
		reflect.DeepEqual(a.ByRule, b.ByRule) &&
		a.Dropped == b.Dropped &&
		reflect.DeepEqual(a.Hotspots, b.Hotspots) &&
		reflect.DeepEqual(a.Density, b.Density)
}
