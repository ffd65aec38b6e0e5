package tiling

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
)

// goldenTile and goldenWindow are one fixed unit of each stage, in
// canonical order as every keyed unit is: several layers, a duplicate,
// records that differ only in their last coordinate or only in their
// net, negative coordinates, so every hashed field is exercised. That
// extraction order does not reach the key is TestKeyIgnoresExtractionOrder's
// to show.
func goldenTile() *TileRequest {
	return &TileRequest{
		Schema: TileSchema, Stage: StageTile, Tech: *tech.N45(),
		DRC: true, Density: true, DensityWindow: 4000,
		DensityLayers: []tech.Layer{tech.Metal1, tech.Metal2},
		CoreW:         8000, CoreH: 8000, Pad: 2000,
		Windows: []geom.Rect{geom.R(0, 0, 4000, 4000), geom.R(4000, 0, 8000, 4000),
			geom.R(0, 4000, 4000, 8000), geom.R(4000, 4000, 8000, 8000)},
		Shapes: []layout.Shape{
			{Layer: tech.Poly, R: geom.R(300, 200, 345, 2600)},
			{Layer: tech.Metal1, R: geom.R(-1200, -900, 150, 70)},
			{Layer: tech.Metal1, R: geom.R(-1200, -400, 9100, -400)},
			{Layer: tech.Metal1, R: geom.R(-1200, -400, 9100, -330), Net: layout.NoNet},
			{Layer: tech.Metal2, R: geom.R(1500, 1500, 1800, 1570), Net: 3},
			{Layer: tech.Metal2, R: geom.R(1500, 1500, 1800, 1570), Net: 3},
			{Layer: tech.Metal2, R: geom.R(1850, 1500, 2150, 1570), Net: 7},
		},
	}
}

func goldenWindow() *TileRequest {
	return &TileRequest{
		Schema: TileSchema, Stage: StageWindow, Tech: *tech.N45(),
		Cond: litho.Nominal, Interior: true,
		Layer: tech.Metal1, WinW: 1500, WinH: 1500, Pad: 1000,
		Rects: []geom.Rect{geom.R(-1000, 700, 2500, 770), geom.R(200, 0, 270, 1400),
			geom.R(200, 0, 270, 1500), geom.R(340, 0, 410, 1500)},
	}
}

// The two hex values below were printed by this test at the parent of
// PR 19 (commit 53ff213, schema-2 wire, reflective sort inside the key,
// unbuffered hash writes) and have since survived a wire change (packed
// columns, schema 3) and an ordering change (schema 4: the unit arrives
// sorted and the key hashes it as it stands — the same byte stream the
// sort inside the key used to produce, which is why the fixtures could
// simply be written in order). A content address is a hash of geometry
// and config, never of wire bytes or of how the hasher is fed: a key
// that moves here silently empties every tile cache in a fleet and
// re-keys the router's affinity ring. The wire round trip in the middle
// is the proof that the packed form re-keys nothing either.
func TestGoldenKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  *TileRequest
		want string
	}{
		{"tile", goldenTile(), "40fb0838335b614e5cad78ab7b9dfcdcd1e4af1b620e83dc8230fdfdf7dc568e"},
		{"window", goldenWindow(), "d686896e7bf60c213c68292de01022f420286dd7d61d449ddecb7ee9798bd455"},
	} {
		k, err := tc.req.Key()
		if err != nil {
			t.Fatalf("%s: Key: %v", tc.name, err)
		}
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("%s: key %s, recorded at the parent commit as %s", tc.name, got, tc.want)
		}
		b, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		var back TileRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		if bk, err := back.Key(); err != nil || bk != k {
			t.Errorf("%s: key after the wire round trip %x (%v), before it %x", tc.name, bk, err, k)
		}
	}
}

// fullestUnits cuts a generated chip's plan and returns its stage-A
// unit and its metal1 scan-window unit with the most geometry, both as
// extracted: in hierarchy-walk order, not yet canonical.
func fullestUnits(tb testing.TB, rects int64) (tile, window *TileRequest) {
	tb.Helper()
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, TargetRects: rects, Defects: 8})
	if err != nil {
		tb.Fatal(err)
	}
	ex := NewExtractor(l.Top)
	p := newPlan(tt, ex, Opts{Tile: 24000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000,
		Hotspots: []tech.Layer{tech.Metal1}})
	for i := 0; i < p.nx*p.ny; i++ {
		if u, _ := p.tileUnit(i, ex); tile == nil || len(u.Shapes) > len(tile.Shapes) {
			tile = u
		}
	}
	sp := &p.scans[0]
	for _, win := range sp.swins {
		if rs := ex.AppendLayerRects(win.Bloat(sp.extPad), sp.layer, nil); window == nil || len(rs) > len(window.Rects) {
			window = p.windowUnit(sp, win, rs)
		}
	}
	if len(tile.Shapes) < 100 || len(window.Rects) < 2 {
		tb.Fatalf("fullest tile has %d shapes and its window %d rects; the fixture is vacuous", len(tile.Shapes), len(window.Rects))
	}
	return tile, window
}

// Extraction order follows the hierarchy walk, and two tiles holding
// the same geometry may be walked differently; canonicalize is what
// makes them one unit. A real plan unit of each stage — given exact
// duplicates and a record that differs from its neighbour only in its
// net, which the key must not see — is shuffled under seeded
// permutations: uncanonical it is refused by index, canonicalized it has
// one key and, computed, one result.
func TestKeyIgnoresExtractionOrder(t *testing.T) {
	tile, window := fullestUnits(t, 20_000)
	twin := tile.Shapes[0]
	twin.Net = 41
	tile.Shapes = append(tile.Shapes, tile.Shapes[1], tile.Shapes[len(tile.Shapes)/2], twin)
	window.Rects = append(window.Rects, window.Rects[0], window.Rects[len(window.Rects)-1])

	for _, u := range []*TileRequest{tile, window} {
		ref := *u
		ref.Shapes, ref.Rects = append([]layout.Shape(nil), u.Shapes...), append([]geom.Rect(nil), u.Rects...)
		ref.canonicalize()
		want, err := ref.Key()
		if err != nil {
			t.Fatalf("%s: canonical unit: %v", u.Stage, err)
		}
		wantRes, err := ExecuteTile(context.Background(), &ref)
		if err != nil {
			t.Fatal(err)
		}
		refused := 0
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			v := *u
			v.Shapes, v.Rects = append([]layout.Shape(nil), u.Shapes...), append([]geom.Rect(nil), u.Rects...)
			rng.Shuffle(len(v.Shapes), func(i, j int) { v.Shapes[i], v.Shapes[j] = v.Shapes[j], v.Shapes[i] })
			rng.Shuffle(len(v.Rects), func(i, j int) { v.Rects[i], v.Rects[j] = v.Rects[j], v.Rects[i] })
			if _, err := v.Key(); err != nil && strings.Contains(err.Error(), "sorts before") {
				refused++
			} else {
				t.Errorf("%s seed %d: a shuffled unit keyed (%v), want it refused as out of order", u.Stage, seed, err)
			}
			v.canonicalize()
			if got, err := v.Key(); err != nil || got != want {
				t.Errorf("%s seed %d: key %x (%v) after canonicalize, want %x", u.Stage, seed, got, err, want)
			}
			if seed > 2 {
				continue // the computation is the slow part; two orders of it suffice
			}
			if res, err := ExecuteTile(context.Background(), &v); err != nil || !reflect.DeepEqual(res, wantRes) {
				t.Errorf("%s seed %d: result differs between two orders of one multiset (%v)", u.Stage, seed, err)
			}
		}
		if refused == 0 {
			t.Errorf("%s: no shuffle was refused; the order check is not running", u.Stage)
		}
	}
}

// Key reads the unit; it does not copy it. Whatever it allocates (the
// config marshal, the hasher) must not grow with the unit: a clone of
// the shapes would show as 96 kB more on the large unit, a boxed record
// as thousands of allocations more.
func TestKeyAllocatesNothingPerShape(t *testing.T) {
	small := goldenTile()
	big := goldenTile()
	for i := 0; len(big.Shapes) < 2000; i++ {
		big.Shapes = append(big.Shapes, layout.Shape{Layer: tech.Metal3, R: geom.R(int64(i), 0, int64(i)+40, 900)})
	}
	const runs = 20
	measure := func(u *TileRequest) (allocs float64, bytes uint64) {
		key := func() {
			if _, err := u.Key(); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, key)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			key()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	sa, sb := measure(small)
	ba, bb := measure(big)
	if !raceEnabled && sa != ba {
		t.Errorf("Key allocates %v times on a %d-shape unit and %v on a %d-shape one, want the same", sa, len(small.Shapes), ba, len(big.Shapes))
	}
	if bb > sb+8<<10 {
		t.Errorf("Key allocates %d bytes on a %d-shape unit and %d on a %d-shape one, want no more (the shapes alone are %d)",
			sb, len(small.Shapes), bb, len(big.Shapes), 48*len(big.Shapes))
	}
}

// BenchmarkTileKey is what identity costs once a unit is in canonical
// order: Validate's linear pass plus one hash of the fullest 24000-nm
// signoff tile of the benchmark's 50k-rect fleet chip, the unit
// BenchmarkTileWire ships.
func BenchmarkTileKey(b *testing.B) {
	tile, _ := fullestUnits(b, 50_000)
	tile.canonicalize()
	b.Logf("tile: %d shapes, %d windows", len(tile.Shapes), len(tile.Windows))
	b.SetBytes(int64(len(tile.Shapes)) * 40) // the bytes hashed per shape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tile.Key(); err != nil {
			b.Fatal(err)
		}
	}
}
