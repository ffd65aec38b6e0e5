package tiling

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
)

// loopback is a TileClient that round-trips the request and result
// through their packed JSON — what the HTTP path does — and executes the
// unit with the reference executor. DistEvaluate through loopback must
// therefore be bit-identical to Evaluate, or the wire form loses
// information.
type loopback struct {
	tiles, windows atomic.Int64
	// onResult, when set, sees each result as executed and as decoded.
	// It is called from DistEvaluate's worker goroutines.
	onResult func(sent, got *TileResult)
}

func (lb *loopback) EvalTile(ctx context.Context, req *TileRequest) (*TileResult, TileServed, error) {
	b, err := json.Marshal(PackRequest(req))
	if err != nil {
		return nil, TileServed{}, err
	}
	wire, err := ReadRequest(b)
	if err != nil {
		return nil, TileServed{}, err
	}
	switch wire.Stage {
	case StageTile:
		lb.tiles.Add(1)
	case StageWindow:
		lb.windows.Add(1)
	}
	res, err := ExecuteTile(ctx, wire)
	if err != nil {
		return nil, TileServed{}, err
	}
	if b, err = json.Marshal(PackResult(res)); err != nil {
		return nil, TileServed{}, err
	}
	out, err := ReadResult(b)
	if err != nil {
		return nil, TileServed{}, err
	}
	if lb.onResult != nil {
		lb.onResult(res, out)
	}
	return out, TileServed{}, nil
}

// The headline distributed differential: a generated chip with injected
// defects, evaluated in-process and through the wire loopback. Every
// violation, density window, and stat-visible remote counter must line
// up.
func TestDistEvaluateMatchesLocal(t *testing.T) {
	tt := tech.N45()
	top := chipTop(t, layout.ChipOpts{
		Seed: 3, Slots: 2, SlotPitch: 15000, Defects: 3,
		MacroMix: []int{0, 1, 1, 1},
	})
	o := Opts{DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true,
		Tile: 9000, Halo: 2000, Workers: 4}

	local, err := Evaluate(context.Background(), tt, NewExtractor(top), o)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(local.Violations) == 0 {
		t.Fatal("local evaluation produced no violations; differential is vacuous")
	}

	lb := &loopback{}
	dist, err := DistEvaluate(context.Background(), tt, NewExtractor(top), o, lb)
	if err != nil {
		t.Fatalf("DistEvaluate: %v", err)
	}
	diffResults(t, "distributed", dist, local)
	if !Equivalent(dist, local) {
		t.Error("Equivalent(dist, local) = false")
	}
	if dist.Stats.RemoteTiles == 0 {
		t.Fatal("DistEvaluate sent no tiles to the fleet")
	}
	if dist.Stats.RemoteTiles != lb.tiles.Load() {
		t.Errorf("Stats.RemoteTiles = %d, loopback served %d", dist.Stats.RemoteTiles, lb.tiles.Load())
	}
	// Empty tiles must short-circuit locally, never hit the wire.
	if wantSent := int64(dist.Stats.Tiles - dist.Stats.EmptyTiles); lb.tiles.Load() != wantSent {
		t.Errorf("loopback served %d tiles, want non-empty count %d", lb.tiles.Load(), wantSent)
	}
}

// Full-stack distributed differential including the litho hotspot scan:
// stage-B windows go over the wire too, and the stitched hotspot set
// must be exact.
func TestDistEvaluateMatchesLocalFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("litho simulation differential is slow; skipped in -short")
	}
	tt := tech.N45()
	// Compact hierarchical cell from the flat differential: a 30nm
	// drawn neck guarantees printed pinches, instances straddle both
	// the tile and the scan-window boundary.
	leaf := layout.NewCell("X_DLEAF")
	leaf.Add(tech.Metal1, geom.R(0, 0, 90, 1000))
	leaf.Add(tech.Metal1, geom.R(30, 1000, 60, 1200))
	leaf.Add(tech.Metal1, geom.R(0, 1200, 90, 2200))
	leaf.Add(tech.Metal2, geom.R(200, 0, 1400, 1200))
	top := layout.NewCell("X_DCHIP")
	for _, at := range []geom.Point{
		geom.Pt(500, 500), geom.Pt(7950, 3000), geom.Pt(11960, 6000),
	} {
		top.Place(leaf, geom.Translate(at.X, at.Y), fmt.Sprintf("u%d_%d", at.X, at.Y))
	}
	top.Add(tech.Metal1, geom.R(12500, 12500, 13000, 13000))
	top.Add(tech.Metal1, geom.R(0, 12500, 500, 13000))
	o := DefaultOpts()
	o.Tile, o.Halo = 8000, 2000
	o.Workers = 4

	local, err := Evaluate(context.Background(), tt, NewExtractor(top), o)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(local.Hotspots[tech.Metal1]) == 0 {
		t.Fatal("expected printed pinch hotspots; differential is vacuous")
	}

	lb := &loopback{}
	dist, err := DistEvaluate(context.Background(), tt, NewExtractor(top), o, lb)
	if err != nil {
		t.Fatalf("DistEvaluate: %v", err)
	}
	diffResults(t, "distributed full stack", dist, local)
	if dist.Stats.RemoteWindows == 0 || dist.Stats.RemoteWindows != lb.windows.Load() {
		t.Errorf("Stats.RemoteWindows = %d, loopback served %d, want equal and > 0",
			dist.Stats.RemoteWindows, lb.windows.Load())
	}
}

// A unit computed here and the same unit served by a node are one cache
// entry, asserted through behaviour: after a local run a distributed
// run over the same cache sends nothing, and after a distributed run a
// local one computes nothing.
func TestLocalAndServedUnitsShareAKey(t *testing.T) {
	tt := tech.N45()
	ex := NewExtractor(seamChip())
	for _, distFirst := range []bool{false, true} {
		o := DefaultOpts()
		o.Tile, o.Halo = 8000, 2000
		o.Cache = NewCache(0)
		lb := &loopback{}
		run := func(dist bool) *Result {
			t.Helper()
			var res *Result
			var err error
			if dist {
				res, err = DistEvaluate(context.Background(), tt, ex, o, lb)
			} else {
				res, err = Evaluate(context.Background(), tt, ex, o)
			}
			if err != nil {
				t.Fatalf("dist=%v: %v", dist, err)
			}
			return res
		}
		first, second := run(distFirst), run(!distFirst)
		diffResults(t, fmt.Sprintf("distFirst=%v", distFirst), second, first)
		if first.Stats.TileMisses < 2 || first.Stats.WindowMisses < 2 {
			t.Fatalf("distFirst=%v: first run missed %d tiles and %d windows; the case is vacuous",
				distFirst, first.Stats.TileMisses, first.Stats.WindowMisses)
		}
		if st := second.Stats; st.TileMisses != 0 || st.WindowMisses != 0 || st.RemoteTiles != 0 || st.RemoteWindows != 0 {
			t.Errorf("distFirst=%v: second run missed %d tiles and %d windows and sent %d and %d, want every unit replayed",
				distFirst, st.TileMisses, st.WindowMisses, st.RemoteTiles, st.RemoteWindows)
		}
		if sent, want := lb.tiles.Load()+lb.windows.Load(), first.Stats.RemoteTiles+first.Stats.RemoteWindows; sent != want {
			t.Errorf("distFirst=%v: the fleet served %d units in all, want the first run's %d", distFirst, sent, want)
		}
	}
}

// DistEvaluate without a client is a programming error, not a silent
// local fallback.
func TestDistEvaluateNilClient(t *testing.T) {
	_, err := DistEvaluate(context.Background(), tech.N45(), NewExtractor(layout.NewCell("X_NIL")), Opts{Tile: 8000, Halo: 100, DRC: true}, nil)
	if err == nil {
		t.Fatal("DistEvaluate(nil client) succeeded, want error")
	}
}

// The content address must be frame-independent: the same relative
// geometry submitted from two different chip locations (or two
// different chips) is the same work unit, fleet-wide.
func TestTileRequestKeyTranslationInvariant(t *testing.T) {
	tt := tech.N45()
	o := Opts{DRC: true, Density: true, DensityWindow: 3000}
	dens := []tech.Layer{tech.Metal1, tech.Metal2}
	shapesAt := func(ox, oy int64) []layout.Shape {
		return []layout.Shape{
			{Layer: tech.Metal1, R: geom.R(ox+100, oy+100, ox+400, oy+1100)},
			{Layer: tech.Metal2, R: geom.R(ox+600, oy+200, ox+900, oy+1400)},
		}
	}
	winsAt := func(ox, oy int64) []geom.Rect {
		return []geom.Rect{geom.R(ox, oy, ox+3000, oy+3000)}
	}
	reqA := tileWireRequest(tt, o, dens, geom.R(0, 0, 8000, 8000), 2000, winsAt(0, 0), shapesAt(0, 0))
	reqB := tileWireRequest(tt, o, dens, geom.R(56000, 24000, 64000, 32000), 2000, winsAt(56000, 24000), shapesAt(56000, 24000))
	ka, err := reqA.Key()
	if err != nil {
		t.Fatalf("Key(A): %v", err)
	}
	kb, err := reqB.Key()
	if err != nil {
		t.Fatalf("Key(B): %v", err)
	}
	if ka != kb {
		t.Error("identical relative content from different origins hashed to different keys")
	}

	// Different content must not collide.
	reqC := tileWireRequest(tt, o, dens, geom.R(0, 0, 8000, 8000), 2000, winsAt(0, 0), shapesAt(0, 50))
	kc, err := reqC.Key()
	if err != nil {
		t.Fatalf("Key(C): %v", err)
	}
	if ka == kc {
		t.Error("different shape content hashed to the same key")
	}

	// Stage-B windows: same invariance for the scan-window form.
	rectsAt := func(ox, oy int64) []geom.Rect {
		return []geom.Rect{geom.R(ox+10, oy+10, ox+100, oy+2000)}
	}
	wa := windowWireRequest(tt, o, dens, tech.Metal1, geom.R(0, 0, 12000, 12000), 500, rectsAt(0, 0))
	wb := windowWireRequest(tt, o, dens, tech.Metal1, geom.R(36000, 12000, 48000, 24000), 500, rectsAt(36000, 12000))
	kwa, err := wa.Key()
	if err != nil {
		t.Fatalf("Key(window A): %v", err)
	}
	kwb, err := wb.Key()
	if err != nil {
		t.Fatalf("Key(window B): %v", err)
	}
	if kwa != kwb {
		t.Error("identical window content from different origins hashed to different keys")
	}
	if kwa == ka {
		t.Error("window and tile units hashed to the same key")
	}
}

// The key must survive the wire: a JSON round-trip of a request is the
// same work unit.
func TestTileRequestKeySurvivesJSON(t *testing.T) {
	tt := tech.N45()
	req := tileWireRequest(tt, Opts{DRC: true}, nil, geom.R(0, 0, 8000, 8000), 2000,
		nil, []layout.Shape{{Layer: tech.Metal1, R: geom.R(100, 100, 400, 1100)}})
	k0, err := req.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	back, err := requestRoundTrip(t, req)
	if err != nil {
		t.Fatalf("wire round trip: %v", err)
	}
	k1, err := back.Key()
	if err != nil {
		t.Fatalf("Key(round-trip): %v", err)
	}
	if k0 != k1 {
		t.Error("JSON round-trip changed the content address")
	}
}

// The interior flag of a window unit must survive JSON and keep its
// key, like every other request field.
func TestTileRequestInteriorSurvivesJSON(t *testing.T) {
	tt := tech.N45()
	req := windowWireRequest(tt, Opts{DRC: true, HotspotInterior: true}, nil, tech.Metal1,
		geom.R(0, 0, 12000, 12000), 500, []geom.Rect{geom.R(0, 0, 90, 1000)})
	if err := req.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !req.Interior {
		t.Fatal("window request built from HotspotInterior opts does not carry the interior flag")
	}
	k0, err := req.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	back, err := requestRoundTrip(t, req)
	if err != nil {
		t.Fatalf("wire round trip: %v", err)
	}
	if back.Interior != req.Interior {
		t.Fatalf("wire round-trip lost the interior flag: %+v", back)
	}
	k1, err := back.Key()
	if err != nil {
		t.Fatalf("Key(round-trip): %v", err)
	}
	if k0 != k1 {
		t.Error("JSON round-trip changed the content address")
	}
}

func TestTileRequestValidate(t *testing.T) {
	tt := tech.N45()
	good := tileWireRequest(tt, Opts{DRC: true}, nil, geom.R(0, 0, 8000, 8000), 2000, nil, nil)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*TileRequest)
		want string
	}{
		{"schema skew", func(r *TileRequest) { r.Schema = TileSchema + 1 }, "schema"},
		{"unknown stage", func(r *TileRequest) { r.Stage = "banana" }, "stage"},
		{"negative pad", func(r *TileRequest) { r.Pad = -1 }, "pad"},
		{"empty core", func(r *TileRequest) { r.CoreW = 0 }, "core"},
		{"shape on a layer the node has no rules for", func(r *TileRequest) {
			r.Shapes = []layout.Shape{{Layer: tech.NumLayers, R: geom.R(0, 0, 100, 100)}}
		}, "layer"},
		{"inverted shape", func(r *TileRequest) {
			r.Shapes = []layout.Shape{{Layer: tech.Metal1, R: geom.Rect{X0: 400, Y0: 100, X1: 100, Y1: 1100}}}
		}, "canonical"},
		{"inverted density window", func(r *TileRequest) {
			r.Windows = []geom.Rect{{X0: 0, Y0: 3000, X1: 3000, Y1: 0}}
		}, "canonical"},
		{"density layer out of range", func(r *TileRequest) {
			r.Density, r.DensityWindow, r.DensityLayers = true, 3000, []tech.Layer{tech.Metal1, 200}
		}, "layer"},
		{"density without a window size", func(r *TileRequest) { r.Density, r.DensityWindow = true, 0 }, "density window"},
		{"negative density window size", func(r *TileRequest) { r.Density, r.DensityWindow = true, -3000 }, "density window"},
		{"pad that wraps core.Bloat", func(r *TileRequest) { r.Pad = math.MaxInt64 }, "pad"},
		{"pad one past the bound", func(r *TileRequest) { r.Pad = maxCoord + 1 }, "pad"},
		{"core past the bound", func(r *TileRequest) { r.CoreH = maxCoord + 1 }, "core"},
		{"shape coordinate past the bound", func(r *TileRequest) {
			r.Shapes = []layout.Shape{{Layer: tech.Metal1, R: geom.R(100, 100, 400, maxCoord+1)}}
		}, "shape 0"},
		{"shape at the far negative end", func(r *TileRequest) {
			r.Shapes = []layout.Shape{{Layer: tech.Metal1, R: geom.R(math.MinInt64, 100, 400, 1100)}}
		}, "within ±"},
		{"density window coordinate past the bound", func(r *TileRequest) {
			r.Windows = []geom.Rect{geom.R(-maxCoord-1, 0, 3000, 3000)}
		}, "density window 0"},
	}
	for _, tc := range cases {
		r := *good
		tc.mut(&r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", tc.name, err, tc.want)
		}
		if _, kerr := r.Key(); kerr == nil {
			t.Errorf("%s: Key() accepted the request", tc.name)
		}
	}
	// What the engine itself sends stays valid: zero-area shapes are
	// canonical, and a unit with density off carries no window size.
	edge := *good
	edge.Shapes = []layout.Shape{{Layer: tech.NumLayers - 1, R: geom.R(50, 50, 50, 900)}}
	edge.Windows = []geom.Rect{geom.R(0, 0, 3000, 3000)}
	if err := edge.Validate(); err != nil {
		t.Errorf("degenerate but canonical tile request rejected: %v", err)
	}
	// The bound is inclusive, and what it is for: two metal2 wires 10 nm
	// apart are one violation under any pad that validates, where a pad
	// of MaxInt64 inverted the padded window and answered zero.
	edge.Pad, edge.CoreW = maxCoord, maxCoord
	edge.Shapes = []layout.Shape{{Layer: tech.Metal2, R: geom.R(-maxCoord, 1500, 1800, 1570)},
		{Layer: tech.Metal2, R: geom.R(1810, 1500, maxCoord, 1570)}}
	if res, err := ExecuteTile(context.Background(), &edge); err != nil || len(res.Violations) != 1 {
		t.Errorf("unit at the coordinate bound: %+v, %v, want the one spacing violation", res, err)
	}
	win := windowWireRequest(tt, DefaultOpts(), nil, tech.Metal1, geom.R(0, 0, 12000, 12000), 500, nil)
	if err := win.Validate(); err != nil {
		t.Fatalf("valid window request rejected: %v", err)
	}
	// Dose 0 is a window request without "cond": nothing prints, so it
	// would answer clean. It and a negative dose are refused, and so
	// never keyed or cached.
	for _, dose := range []float64{0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64} {
		bad := *win
		bad.Cond.Dose = dose
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "dose") {
			t.Errorf("window request at dose %g: Validate() = %v, want the dose named", dose, err)
		}
		if _, err := bad.Key(); err == nil {
			t.Errorf("window request at dose %g: Key() accepted it", dose)
		}
	}
	win.WinH = 0
	if err := win.Validate(); err == nil {
		t.Error("empty window passed Validate")
	}
	win.WinH = 12000
	win.Rects = []geom.Rect{geom.R(0, 0, 90, 1000), geom.R(0, 2000, 90, math.MaxInt64)}
	if err := win.Validate(); err == nil || !strings.Contains(err.Error(), "rect 1") {
		t.Errorf("window rect past the bound: Validate() = %v, want rect 1 named", err)
	}
	// A pitch coarse enough to pass the pixel bound must not carry a
	// window past the coordinate bound with it.
	win.Rects, win.Tech.Optics.GridNM, win.WinW = nil, 1e9, maxCoord+1
	if err := win.Validate(); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("window wider than the bound: Validate() = %v, want the window named", err)
	}
	var nilReq *TileRequest
	if err := nilReq.Validate(); err == nil {
		t.Error("nil request passed Validate")
	}
}

// A window request's optics and size arrive from outside the process
// and go straight into kernel and buffer sizes, so Validate must turn
// every shape the simulator would index-panic or over-allocate on into
// an error, and leave the production window alone.
func TestWindowRequestValidateOptics(t *testing.T) {
	fresh := func() *TileRequest {
		return windowWireRequest(tech.N45(), DefaultOpts(), nil, tech.Metal1, geom.R(0, 0, 12000, 12000), 500, nil)
	}
	if px := litho.ScanWindowPixels(tech.N45().Optics, 0, 12000, 12000); px < 7e6 || px > maxWindowPixels/8 {
		t.Fatalf("production window simulates %.3g pixels; the cap %d is meant to leave ~9x over ~7.2M", px, maxWindowPixels)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*TileRequest)
		want string
	}{
		{"fewer weights than sigmas", func(r *TileRequest) { r.Tech.Optics.Weights = r.Tech.Optics.Weights[:1] }, "weights"},
		{"no kernels", func(r *TileRequest) { r.Tech.Optics.Sigmas, r.Tech.Optics.Weights = nil, nil }, "sigmas"},
		{"zero sigma", func(r *TileRequest) { r.Tech.Optics.Sigmas = []float64{0, 90} }, "sigma"},
		{"negative sigma", func(r *TileRequest) { r.Tech.Optics.Sigmas = []float64{45, -90} }, "sigma"},
		{"NaN sigma", func(r *TileRequest) { r.Tech.Optics.Sigmas = []float64{nan, 90} }, "sigma"},
		{"infinite weight", func(r *TileRequest) { r.Tech.Optics.Weights = []float64{inf, 1} }, "weight"},
		{"weights cancel", func(r *TileRequest) { r.Tech.Optics.Weights = []float64{1, -1} }, "sum"},
		{"zero pitch", func(r *TileRequest) { r.Tech.Optics.GridNM = 0 }, "pitch"},
		{"NaN pitch", func(r *TileRequest) { r.Tech.Optics.GridNM = nan }, "pitch"},
		{"infinite defocus scale", func(r *TileRequest) { r.Tech.Optics.DefocusScale = inf }, "defocus scale"},
		{"NaN defocus", func(r *TileRequest) { r.Cond.Defocus = nan }, "condition"},
		{"infinite dose", func(r *TileRequest) { r.Cond.Dose = inf }, "condition"},
		{"sub-angstrom pitch", func(r *TileRequest) { r.Tech.Optics.GridNM = 0.05 }, "pixels"},
		{"metre-wide window", func(r *TileRequest) { r.WinW = 1e9 }, "pixels"},
		{"window past int64 pixels", func(r *TileRequest) { r.WinW, r.WinH = math.MaxInt64, math.MaxInt64 }, "pixels"},
		{"kernel wider than the cap", func(r *TileRequest) { r.Tech.Optics.Sigmas = []float64{1e300, 90} }, "pixels"},
		{"defocus blows the kernel up", func(r *TileRequest) { r.Cond.Defocus = 1e300 }, "pixels"},
		{"layer the node has no rules for", func(r *TileRequest) { r.Layer = 200 }, "layer"},
		{"first layer past the table", func(r *TileRequest) { r.Layer = tech.NumLayers }, "layer"},
	}
	for _, tc := range cases {
		r := fresh()
		tc.mut(r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", tc.name, err, tc.want)
		}
		if _, kerr := r.Key(); kerr == nil {
			t.Errorf("%s: Key() accepted the request", tc.name)
		}
	}
	// DRC and density never read the optics: a tile-stage unit from a
	// node that carries none keeps validating (and keeps its key).
	tile := tileWireRequest(tech.N45(), Opts{DRC: true}, nil, geom.R(0, 0, 8000, 8000), 2000, nil, nil)
	tile.Tech.Optics = tech.Optics{}
	if err := tile.Validate(); err != nil {
		t.Errorf("tile-stage request without optics rejected: %v", err)
	}
}

// Version-skewed or confused nodes must fail the run loudly: a result
// whose shape disagrees with the submitted unit — density rows of the
// wrong count or length, or the output of the other stage, which an
// empty list of the right kind would read as "clean" — is rejected
// before it is cached or stitched.
func TestAbsorbTileResultShapeChecks(t *testing.T) {
	tt := tech.N45()
	dens := []tech.Layer{tech.Metal1, tech.Metal2}
	core := geom.R(0, 0, 8000, 8000)
	o := Opts{DRC: true, Density: true, DensityWindow: 3000}
	oneWin := tileWireRequest(tt, o, dens, core, 2000, []geom.Rect{geom.R(0, 0, 3000, 3000)}, nil)
	twoWins := tileWireRequest(tt, o, dens, core, 2000, []geom.Rect{geom.R(0, 0, 3000, 3000), geom.R(1500, 0, 4500, 3000)}, nil)
	drcOnly := tileWireRequest(tt, Opts{DRC: true}, nil, core, 2000, nil, nil)
	window := windowWireRequest(tt, DefaultOpts(), nil, tech.Metal1, geom.R(0, 0, 12000, 12000), 500, nil)
	if err := absorbTileResult(nil, drcOnly); err == nil {
		t.Error("nil result absorbed")
	}
	if err := absorbTileResult(&TileResult{Dens: [][]float64{{0.5}}}, oneWin); err == nil {
		t.Error("wrong density row count absorbed")
	}
	if err := absorbTileResult(&TileResult{Dens: [][]float64{{0.5, 0.5}, {0.1}}}, twoWins); err == nil {
		t.Error("ragged density row absorbed")
	}
	if err := absorbTileResult(&TileResult{Dens: [][]float64{{0.5}, {0.1}}}, oneWin); err != nil {
		t.Errorf("well-shaped result rejected: %v", err)
	}

	viol := []drc.Violation{{Rule: "metal2.space", Layer: tech.Metal2, Marker: geom.R(1800, 1500, 1850, 1570)}}
	hot := []litho.Hotspot{{Kind: litho.Pinch, Box: geom.R(30, 1000, 60, 1200)}}
	if err := absorbTileResult(&TileResult{Hotspots: hot}, drcOnly); err == nil || !strings.Contains(err.Error(), "hotspots") {
		t.Errorf("a DRC tile answered with hotspots: %v, want it refused", err)
	}
	if err := absorbTileResult(&TileResult{Violations: viol}, window); err == nil || !strings.Contains(err.Error(), "violations") {
		t.Errorf("a scan window answered with violations: %v, want it refused", err)
	}
	if err := absorbTileResult(&TileResult{Dens: [][]float64{{0.5}}}, window); err == nil {
		t.Error("a scan window answered with density rows absorbed")
	}
	if err := absorbTileResult(&TileResult{Violations: viol}, drcOnly); err != nil {
		t.Errorf("a DRC tile's violations rejected: %v", err)
	}
	if err := absorbTileResult(&TileResult{Hotspots: hot}, window); err != nil {
		t.Errorf("a scan window's hotspots rejected: %v", err)
	}
	if err := absorbTileResult(&TileResult{}, window); err != nil {
		t.Errorf("a clean scan window rejected: %v", err)
	}
}

// stageSwap is a node that answers every unit of one stage with the
// other stage's kind of output, and the rest honestly.
type stageSwap struct{ stage string }

func (sw stageSwap) EvalTile(ctx context.Context, req *TileRequest) (*TileResult, TileServed, error) {
	if req.Stage != sw.stage {
		res, err := ExecuteTile(ctx, req)
		return res, TileServed{}, err
	}
	if req.Stage == StageWindow {
		return &TileResult{Violations: []drc.Violation{{Rule: "metal1.width", Layer: tech.Metal1, Marker: geom.R(0, 0, 10, 10)}}}, TileServed{}, nil
	}
	return &TileResult{Hotspots: []litho.Hotspot{{Kind: litho.Pinch, Box: geom.R(0, 0, 10, 10)}}}, TileServed{}, nil
}

// Through the whole engine: a fleet answering with the wrong stage's
// output fails the run and names the unit; it neither stitches a dirty
// tile as clean nor leaves the answer in the shared cache.
func TestDistEvaluateRefusesWrongStageResult(t *testing.T) {
	top := layout.NewCell("X_SWAP")
	top.Add(tech.Metal2, geom.R(1500, 1500, 1800, 1570))
	top.Add(tech.Metal2, geom.R(1810, 1500, 2110, 1570)) // 10 nm apart
	top.Add(tech.Metal1, geom.R(100, 100, 190, 3000))
	for _, tc := range []struct {
		stage string
		o     Opts
		want  string
		kept  int // honest answers the cache may hold
	}{
		{StageTile, Opts{DRC: true, Tile: 8000}, "tile at (100,100)", 0},
		{StageWindow, Opts{Hotspots: []tech.Layer{tech.Metal1}, Tile: 8000}, "metal1 scan window at (100,100)", 1},
	} {
		tc.o.Cache = NewCache(0)
		_, err := DistEvaluate(context.Background(), tech.N45(), NewExtractor(top), tc.o, stageSwap{tc.stage})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DistEvaluate through a stage-swapping fleet: %v, want a failure naming %q", tc.stage, err, tc.want)
		}
		if n := tc.o.Cache.lru.Len(); n != tc.kept {
			t.Errorf("%s: cache holds %d results, want %d (no refused answer is stored)", tc.stage, n, tc.kept)
		}
	}
}
