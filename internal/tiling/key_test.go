package tiling

import (
	"cmp"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/keysort"
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

// The two keys below were first printed by this test at the parent of
// PR 19 (commit 53ff213, schema-2 wire, reflective sort inside the key,
// unbuffered hash writes) and then survived a wire change (packed
// columns, schema 3) and an ordering change (schema 4: the unit arrives
// sorted and the key hashes it as it stands — the same byte stream the
// sort inside the key used to produce, which is why the fixtures could
// simply be written in order). A content address is a hash of geometry
// and config, never of wire bytes or of how the hasher is fed: a key
// that moves here silently empties every tile cache in a fleet and
// re-keys the router's affinity ring. The wire round trip in the middle
// is the proof that the packed form re-keys nothing either. The values
// were re-minted once, on purpose, when keySchema went from 3 to 4 (the
// aerial image's rounding changed, EXPERIMENTS.md R43): the schema is
// part of every key, and moving every key is what the bump is for.
func TestGoldenKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  *TileRequest
		want string
	}{
		{"tile", goldenTile(), "f13a3cf58a44c0164e447b31bd596cf1d18fc1addc6ef67bbddbad30d740cc9d"},
		{"window", goldenWindow(), "f465d6222206e340b80d269f342798574a16746c5a5379eb7f3bdbca916e9f43"},
	} {
		k, err := tc.req.Key()
		if err != nil {
			t.Fatalf("%s: Key: %v", tc.name, err)
		}
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("%s: key %s, recorded under keySchema 4 as %s", tc.name, got, tc.want)
		}
		back, err := requestRoundTrip(t, tc.req)
		if err != nil {
			t.Fatalf("%s: wire round trip: %v", tc.name, err)
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
	p, ex := fixturePlan(tb, rects)
	for _, u := range tileUnits(p, ex) {
		if tile == nil || len(u.Shapes) > len(tile.Shapes) {
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

// fixturePlan cuts the seed-11 generated chip of about rects rectangles
// as signoff does (tile 24000, halo 2000) with a metal1 scan.
func fixturePlan(tb testing.TB, rects int64) (*plan, *Extractor) {
	tb.Helper()
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, TargetRects: rects, Defects: 8})
	if err != nil {
		tb.Fatal(err)
	}
	ex := NewExtractor(l.Top)
	return newPlan(tt, ex, Opts{Tile: 24000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000,
		Hotspots: []tech.Layer{tech.Metal1}}), ex
}

// tileUnits is every stage-A unit of the plan, as extracted.
func tileUnits(p *plan, ex *Extractor) []*TileRequest {
	us := make([]*TileRequest, p.nx*p.ny)
	for i := range us {
		us[i], _ = p.tileUnit(i, ex, nil)
	}
	return us
}

// The interior flag is part of the content address: a window scanned
// with and without the interior-pinch filter reports different hotspots,
// so the two must never share a cached result.
func TestKeyVariesWithInterior(t *testing.T) {
	tt := tech.N45()
	rects := []geom.Rect{geom.R(10, 10, 100, 2000)}
	win := geom.R(0, 0, 12000, 12000)
	key := func(o Opts) [32]byte {
		t.Helper()
		k, err := windowWireRequest(tt, o, nil, tech.Metal1, win, 500, rects).Key()
		if err != nil {
			t.Fatalf("Key: %v", err)
		}
		return k
	}
	if key(Opts{DRC: true}) == key(Opts{DRC: true, HotspotInterior: true}) {
		t.Error("interior flag does not change the content address")
	}
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
// server's BenchmarkJobWire ships. The sort that puts a unit in that order runs
// before the timer starts; BenchmarkCanonicalize times it.
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

// BenchmarkCanonicalize sorts every tile of the 100k-rect signoff chip
// from extraction order: by canonicalize (packed keys, radix-sorted past
// keysort's cutoff), by the same packed keys sorted with slices.Sort at
// every size, which is what the radix sort has to beat, and by the
// comparator sort canonicalize replaced. Every arm restores the
// extraction order before each sort, so each times that copy too.
func BenchmarkCanonicalize(b *testing.B) {
	p, ex := fixturePlan(b, 100_000)
	units := tileUnits(p, ex)
	var shapes int
	for _, u := range units {
		shapes += len(u.Shapes)
	}
	b.Logf("%d tiles, %d shapes", len(units), shapes)
	var keys []uint64
	for _, arm := range []struct {
		name string
		sort func(*TileRequest)
	}{
		{"packed", (*TileRequest).canonicalize},
		{"packed-slices", func(u *TileRequest) {
			keys = slices.Grow(keys[:0], len(u.Shapes))[:len(u.Shapes)]
			p, _ := shapeKeys(u.Shapes, keys)
			slices.Sort(keys)
			keysort.Permute(u.Shapes, keys, p.idxBits)
			sortTies(u.Shapes, keys, p.idxBits, shapeCmp)
		}},
		{"comparator", func(u *TileRequest) { slices.SortFunc(u.Shapes, shapeCmp) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			work := make([]TileRequest, len(units))
			for i, u := range units {
				work[i] = *u
				work[i].Shapes = slices.Clone(u.Shapes)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range work {
					copy(work[j].Shapes, units[j].Shapes)
					arm.sort(&work[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shapes), "ns/shape")
		})
	}
}

// Sorting, like keying, must not allocate per shape: canonicalize's
// scratch is pooled, so once the pool is warm a 2000-shape unit costs
// what a 100-shape one does. A key column allocated per call would show
// as 16 kB more on the large unit.
func TestCanonicalizeAllocatesNothingPerShape(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops some of what is put back")
	}
	unit := func(n int) (u *TileRequest, extracted []layout.Shape) {
		u = goldenTile()
		for i := n; len(u.Shapes) < n; i-- { // descending, so the sort moves every record
			u.Shapes = append(u.Shapes, layout.Shape{Layer: tech.Layer(i % int(tech.NumLayers)), R: geom.R(int64(i)*37, int64(i%50)*90, int64(i)*37+40, 9000)})
		}
		return u, slices.Clone(u.Shapes)
	}
	const runs = 20
	measure := func(u *TileRequest, extracted []layout.Shape) (allocs float64, bytes uint64) {
		sort := func() {
			copy(u.Shapes, extracted)
			u.canonicalize()
		}
		allocs = testing.AllocsPerRun(runs, sort)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			sort()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	small, smallX := unit(100)
	big, bigX := unit(2000)
	sa, sb := measure(small, smallX)
	ba, bb := measure(big, bigX)
	if sa != ba {
		t.Errorf("canonicalize allocates %v times on a %d-shape unit and %v on a %d-shape one, want the same", sa, len(small.Shapes), ba, len(big.Shapes))
	}
	if bb > sb+4<<10 {
		t.Errorf("canonicalize allocates %d bytes on a %d-shape unit and %d on a %d-shape one, want no more", sb, len(small.Shapes), bb, len(big.Shapes))
	}
	if err := big.Validate(); err != nil {
		t.Fatalf("the sorted unit: %v", err)
	}
}

// FuzzCanonicalize holds the packed-key sort to the comparator sort it
// replaced (slices.SortFunc with shapeCmp and rectCmp): the same
// records in the same order, up to the net of records that compare
// equal, hence the same key, and an order Validate accepts. A seeded
// column of n records is drawn with coordinates within ±2^span around a
// base: a small span gives equal corners, a wide one or a base near
// ±2^62 overflows the 64-bit key and makes the whole column one tie
// run. mode adds records that repeat an earlier corner with another X1
// and Y1 (bit 0), that repeat an earlier record with another net (bit
// 1), and puts every record on one layer (bit 2).
func FuzzCanonicalize(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 63, 64, 65, 3*keysort.MinPerPass - 1, 3 * keysort.MinPerPass, 3*keysort.MinPerPass + 1, 2100} {
		f.Add(int64(n), n, uint8(12), uint8(3), int64(0))
		f.Add(int64(n), n, uint8(3), uint8(7), int64(-5000))
		f.Add(int64(n), n, uint8(61), uint8(0), int64(0))
		f.Add(int64(n), n, uint8(8), uint8(3), int64(1)<<62-300)
		f.Add(int64(n), n, uint8(8), uint8(1), -int64(1)<<62)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, span, mode uint8, base int64) {
		rng := rand.New(rand.NewSource(seed))
		n %= 2200
		span %= 62
		coord := func() int64 { return base + rng.Int63n(int64(2)<<span) - int64(1)<<span }
		shapes := make([]layout.Shape, 0, n)
		for len(shapes) < int(n) {
			var s layout.Shape
			switch k := len(shapes); {
			case k > 0 && mode&1 != 0 && rng.Intn(4) == 0:
				s = shapes[rng.Intn(k)]
				s.R.X1, s.R.Y1 = s.R.X0+rng.Int63n(4), s.R.Y0+rng.Int63n(4)
			case k > 0 && mode&2 != 0 && rng.Intn(4) == 0:
				s = shapes[rng.Intn(k)]
				s.Net = layout.NetID(rng.Intn(5))
			default:
				s.Layer = tech.Layer(rng.Intn(int(tech.NumLayers)))
				x0, y0 := coord(), coord()
				s.R = geom.Rect{X0: x0, Y0: y0, X1: x0 + rng.Int63n(200), Y1: y0 + rng.Int63n(200)}
				s.Net = layout.NetID(rng.Intn(3))
			}
			if mode&4 != 0 {
				s.Layer = tech.Metal1
			}
			shapes = append(shapes, s)
		}
		rects := make([]geom.Rect, len(shapes))
		for i, s := range shapes {
			rects[i] = s.R
		}

		tile, window := goldenTile(), goldenWindow()
		tile.Shapes, window.Rects = slices.Clone(shapes), rects
		wantShapes, wantRects := slices.Clone(shapes), slices.Clone(rects)
		slices.SortFunc(wantShapes, shapeCmp)
		slices.SortFunc(wantRects, rectCmp)
		tile.canonicalize()
		window.canonicalize()

		for i := range wantShapes {
			if g, w := tile.Shapes[i], wantShapes[i]; g.Layer != w.Layer || g.R != w.R {
				t.Fatalf("shape %d of %d is %+v, the comparator sort has %+v", i, n, g, w)
			}
		}
		if !slices.Equal(window.Rects, wantRects) {
			t.Fatalf("rects of %d differ from the comparator sort's", n)
		}
		byNet := func(a, b layout.Shape) int { return cmp.Or(shapeCmp(a, b), cmp.Compare(a.Net, b.Net)) }
		got := slices.Clone(tile.Shapes)
		slices.SortFunc(got, byNet)
		slices.SortFunc(wantShapes, byNet)
		if !slices.Equal(got, wantShapes) {
			t.Fatalf("the %d sorted shapes are not the records given", n)
		}
		for _, u := range []*TileRequest{tile, window} {
			ref := *u
			ref.Shapes, ref.Rects = wantShapes, wantRects
			if u.key(configKey(u)) != ref.key(configKey(&ref)) {
				t.Fatalf("%s: the key differs from the comparator-sorted unit's", u.Stage)
			}
			if inRangeAll(u) {
				if err := u.Validate(); err != nil {
					t.Fatalf("%s: %v", u.Stage, err)
				}
			}
		}
	})
}

// inRangeAll reports whether every coordinate of u's geometry is within
// the bound Validate holds a unit to.
func inRangeAll(u *TileRequest) bool {
	for _, s := range u.Shapes {
		if !inRange(s.R) {
			return false
		}
	}
	for _, r := range u.Rects {
		if !inRange(r) {
			return false
		}
	}
	return true
}

var update = flag.Bool("update", false, "re-mint testdata/keyschema.golden under the current keySchema")

// keySchemaGolden records, beside the keySchema they were computed
// under, the stitched-result digests of fixed fixture chips at two tile
// sizes and two halos.
const keySchemaGolden = "testdata/keyschema.golden"

// A cache key names a unit's content, not what is computed from it: a
// change to any per-tile computation leaves every key where it was, so
// a warm cache or fleet keeps serving the old answers under the new
// code unless keySchema is bumped. This test catches the change the
// bump was forgotten for: a result digest that moved while keySchema
// did not. After an intended change, bump keySchema and re-mint with
// go test ./internal/tiling -run TestKeySchemaPinned -update.
func TestKeySchemaPinned(t *testing.T) {
	tt := tech.N45()
	chips := []struct {
		name string
		top  *layout.Cell
	}{
		{"seam", seamChip()},
		{"clusters", twoClusterCell()},
		{"generated", chipTop(t, layout.ChipOpts{Seed: 3, Slots: 2, SlotPitch: 15000, MacroMix: []int{0, 1, 1, 1}, HotspotDefects: 2})},
	}
	var lines []string
	for _, c := range chips {
		for _, tile := range []int64{8000, 16000} {
			for _, halo := range []int64{2000, 3000} {
				o := defaultOpts()
				o.Tile, o.Halo = tile, halo
				res, err := EvaluateChip(context.Background(), tt, c.top, o)
				if err != nil {
					t.Fatalf("%s tile=%d halo=%d: %v", c.name, tile, halo, err)
				}
				lines = append(lines, fmt.Sprintf("%s tile=%d halo=%d %x", c.name, tile, halo, sumResult(res)))
			}
		}
	}
	got := fmt.Sprintf("keySchema %d\n%s\n", keySchema, strings.Join(lines, "\n"))
	if *update {
		if err := os.WriteFile(keySchemaGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(keySchemaGolden)
	if err != nil {
		t.Fatalf("%v: mint it with -update", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if want[0] != fmt.Sprintf("keySchema %d", keySchema) {
		t.Fatalf("%s records %q, the code has keySchema %d: re-mint (-update)", keySchemaGolden, want[0], keySchema)
	}
	if len(want)-1 != len(lines) {
		t.Fatalf("%s holds %d digests, the test computes %d: re-mint (-update)", keySchemaGolden, len(want)-1, len(lines))
	}
	for i, line := range lines {
		if line != want[i+1] {
			t.Errorf("result digest moved under keySchema %d:\n got  %s\n want %s", keySchema, line, want[i+1])
		}
	}
	if t.Failed() {
		t.Fatal("bump keySchema and re-mint (-update)")
	}
}
