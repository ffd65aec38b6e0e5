package tiling

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
)

// coord draws from the values delta coding is most likely to get
// wrong: around zero, negative, and within a step of either int64 end,
// where x0-prev and x1-x0 wrap.
func coord(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return math.MaxInt64 - rng.Int63n(3)
	case 1:
		return math.MinInt64 + rng.Int63n(3)
	case 2:
		return -rng.Int63n(50000)
	default:
		return rng.Int63n(50000)
	}
}

// randRect is canonical unless inverted is set, and then usually not.
func randRect(rng *rand.Rand, inverted bool) geom.Rect {
	r := geom.Rect{X0: coord(rng), Y0: coord(rng), X1: coord(rng), Y1: coord(rng)}
	if !inverted {
		r = geom.R(r.X0, r.Y0, r.X1, r.Y1)
	}
	if rng.Intn(5) == 0 {
		r.X1, r.Y1 = r.X0, r.Y0 // zero area
	}
	return r
}

func randRects(rng *rand.Rand, inverted bool) []geom.Rect {
	switch n := rng.Intn(4); n {
	case 0:
		return nil
	case 1:
		return []geom.Rect{} // empty, non-nil
	default:
		rs := make([]geom.Rect, 1+rng.Intn(1<<(2*n)))
		for i := range rs {
			rs[i] = randRect(rng, inverted)
			if i > 0 && rng.Intn(4) == 0 {
				rs[i] = rs[i-1] // duplicates
			}
		}
		return rs
	}
}

func randRequest(rng *rand.Rand, inverted bool) *TileRequest {
	r := goldenWindow()
	r.Rects = randRects(rng, inverted)
	if rng.Intn(2) == 0 {
		r = goldenTile()
		r.Windows = randRects(rng, inverted)
		r.Shapes = nil
		for _, rc := range randRects(rng, inverted) {
			net := layout.NetID(rng.Int31() >> uint(rng.Intn(31)))
			if rng.Intn(3) == 0 {
				net = -net - 1 // NoNet and MinInt32 included
			}
			r.Shapes = append(r.Shapes, layout.Shape{Layer: tech.Layer(rng.Intn(int(tech.NumLayers))), R: rc, Net: net})
		}
	}
	return r
}

var awkwardStrings = []string{"metal2.space", `via "doubled" \ cut`, "enclosure 12 < 15 nm", "間隔 ≥ 70 nm — métal", "<&>", ""}

func randResult(rng *rand.Rand) *TileResult {
	res := &TileResult{}
	for _, rc := range randRects(rng, true) {
		res.Violations = append(res.Violations, drc.Violation{
			Rule: awkwardStrings[rng.Intn(len(awkwardStrings))], Layer: tech.Layer(rng.Intn(256)),
			Marker: rc, Detail: awkwardStrings[rng.Intn(len(awkwardStrings))],
		})
	}
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0.1 + 0.2, 1.0 / 3, math.MaxFloat64, 1}
	switch rng.Intn(3) {
	case 1:
		res.Dens = [][]float64{}
	case 2:
		res.Dens = make([][]float64, 1+rng.Intn(4))
		for i := range res.Dens {
			if n := rng.Intn(5); n > 0 { // uneven rows, some nil, some empty
				res.Dens[i] = make([]float64, n-1)
			}
			for j := range res.Dens[i] {
				res.Dens[i][j] = special[rng.Intn(len(special))]
			}
		}
	}
	if rng.Intn(3) == 0 {
		res.Hotspots = []litho.Hotspot{{Kind: litho.HotspotKind(rng.Intn(2)), Box: randRect(rng, false)}}
	}
	return res
}

// sameDens compares bit patterns (DeepEqual calls -0 and 0 equal) and
// treats a nil row and an empty one as the same row.
func sameDens(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// The codec's contract: whatever goes in comes out, order kept, keys
// unmoved — and a column that was empty, nil or not, comes out nil.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 400; i++ {
		in := randRequest(rng, i%4 == 3)
		if i%4 != 3 {
			// What the engine ships. Every fourth unit stays as drawn,
			// out of order as well as inverted: the codec keeps any
			// order it is given, and it is Validate that refuses one.
			in.canonicalize()
		}
		out, err := requestRoundTrip(t, in)
		if err != nil {
			t.Fatalf("unit %d: strict read: %v", i, err)
		}
		for _, col := range []struct {
			name    string
			in, out any
			n       int
		}{
			{"windows", in.Windows, out.Windows, len(in.Windows)},
			{"shapes", in.Shapes, out.Shapes, len(in.Shapes)},
			{"rects", in.Rects, out.Rects, len(in.Rects)},
		} {
			if col.n == 0 {
				if !reflect.ValueOf(col.out).IsNil() {
					t.Fatalf("unit %d: empty %s decoded to a non-nil slice", i, col.name)
				}
			} else if !reflect.DeepEqual(col.in, col.out) {
				t.Fatalf("unit %d: %s changed on the wire:\n in %v\nout %v", i, col.name, col.in, col.out)
			}
		}
		in.Windows, in.Shapes, in.Rects = out.Windows, out.Shapes, out.Rects
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("unit %d: scalar fields changed on the wire:\n in %+v\nout %+v", i, in, out)
		}
		// The hash under Key, so that the units Validate refuses — the
		// inverted ones and, since coordinates are bounded, every one
		// with a value near an int64 end — are compared as well: the
		// codec is value-agnostic, Validate is what answers.
		kin, kout := in.key(configKey(in)), out.key(configKey(out))
		_, errIn := in.Key()
		_, errOut := out.Key()
		if (errIn == nil) != (errOut == nil) || kin != kout {
			t.Fatalf("unit %d: key %x (%v) before the wire, %x (%v) after", i, kin, errIn, kout, errOut)
		}
		if i%4 != 3 && errIn != nil && !strings.Contains(errIn.Error(), "within ±") {
			t.Fatalf("unit %d: a canonical unit does not validate: %v", i, errIn)
		}
	}

	for i := 0; i < 200; i++ {
		in := randResult(rng)
		out, err := resultRoundTrip(t, in)
		if err != nil {
			t.Fatalf("result %d: strict read: %v", i, err)
		}
		if len(in.Violations) == 0 && out.Violations != nil || len(in.Dens) == 0 && out.Dens != nil {
			t.Fatalf("result %d: an empty column decoded to a non-nil slice: %+v", i, out)
		}
		if len(in.Violations) > 0 && !reflect.DeepEqual(in.Violations, out.Violations) {
			t.Fatalf("result %d: violations changed on the wire:\n in %v\nout %v", i, in.Violations, out.Violations)
		}
		if !sameDens(in.Dens, out.Dens) {
			t.Fatalf("result %d: densities changed on the wire:\n in %v\nout %v", i, in.Dens, out.Dens)
		}
		if !reflect.DeepEqual(in.Hotspots, out.Hotspots) {
			t.Fatalf("result %d: hotspots changed on the wire", i)
		}
	}
}

// A tile that owns no density window answers every enabled density
// rule with an empty row, which the wire hands back as a nil one, and a
// clean tile's empty violation list comes back nil too. The stitched
// result must not be able to tell.
func TestPackedEmptyRowsStitchTheSame(t *testing.T) {
	top := chipTop(t, layout.ChipOpts{Seed: 5, Slots: 2, SlotPitch: 15000, Defects: 2, MacroMix: []int{0, 1, 1, 1}})
	// Windows step by 10000 over ~9000-wide tiles: the last column and
	// row of tiles own none.
	o := Opts{DRC: true, Density: true, DensityWindow: 20000, KeepDensityMaps: true, Tile: 9000, Halo: 2000, Workers: 2}
	local, err := Evaluate(context.Background(), tech.N45(), NewExtractor(top), o)
	if err != nil {
		t.Fatal(err)
	}
	var emptyRows atomic.Int64
	lb := &loopback{onResult: func(sent, got *TileResult) {
		for i, row := range sent.Dens {
			if row != nil && len(row) == 0 {
				emptyRows.Add(1)
				if got.Dens[i] != nil {
					t.Errorf("an empty density row decoded to a non-nil slice")
				}
			}
		}
	}}
	dist, err := DistEvaluate(context.Background(), tech.N45(), NewExtractor(top), o, lb)
	if err != nil {
		t.Fatal(err)
	}
	if emptyRows.Load() == 0 {
		t.Fatal("no tile answered with an empty density row; the check is vacuous")
	}
	if !Equivalent(dist, local) {
		t.Fatal("results that crossed the wire stitch differently from local ones")
	}
}

// withColumn returns v's wire form with one field replaced by the
// base64 of col (or by raw, when col is nil).
func withColumn(t *testing.T, v any, field string, col []byte, raw string) []byte {
	t.Helper()
	b := packedJSON(t, v)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	if col != nil {
		raw = `"` + base64.StdEncoding.EncodeToString(col) + `"`
	}
	fields[field] = json.RawMessage(raw)
	return mustMarshal(t, fields)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// Every way a column can be malformed is an error naming the field —
// over HTTP a 400 (internal/wirecompat) — and never a panic.
func TestPackedMalformedColumns(t *testing.T) {
	zeros := make([]byte, 16)
	dangling := bytes.Repeat([]byte{0x80}, 8)  // continuation bits, then nothing
	overlong := bytes.Repeat([]byte{0xff}, 11) // an 11-byte varint
	oneShape := []byte{1, 3, 0, 0, 2, 2, 0}    // count, layer, rect, net
	oneViol := []byte{1, 3, 0, 0, 2, 2, 0, 2}  // count, layer, marker, rule, detail
	result := &TileResult{Violations: []drc.Violation{{Rule: "r", Detail: "d"}}}
	for _, tc := range []struct {
		name  string
		v     any
		field string
		col   []byte
		raw   string
		want  string
	}{
		{"truncated varint", goldenTile(), "shapes", cat(uv(1), []byte{3}, dangling), "", "truncated varint"},
		{"11-byte varint", goldenTile(), "shapes", cat(uv(1), []byte{3}, overlong, zeros), "", "overflows 64 bits"},
		{"count past the bytes", goldenTile(), "shapes", cat(uv(1<<60), zeros), "", "declares 1152921504606846976 records"},
		{"count one past the bytes", goldenTile(), "shapes", cat(uv(2), oneShape[1:]), "", "declares 2 records"},
		{"trailing garbage", goldenTile(), "shapes", cat(oneShape, []byte{0}), "", "trailing"},
		{"zero count, trailing garbage", goldenTile(), "shapes", []byte{0, 0}, "", "trailing"},
		{"layer past a byte", goldenTile(), "shapes", cat(uv(1), uv(300), zeros[:5]), "", "layer 300"},
		{"net past 32 bits", goldenTile(), "shapes", cat(uv(1), zeros[:5], binary.AppendVarint(nil, 1<<40)), "", "net 1099511627776"},
		{"odd base64", goldenTile(), "shapes", nil, `"AAA"`, "base64"},
		{"not base64 at all", goldenTile(), "windows", nil, `"!!!!"`, "base64"},
		{"packed field, schema-2 spelling", goldenTile(), "shapes", nil, `[{"Layer":3,"R":{"X0":0,"Y0":0,"X1":1,"Y1":1},"Net":0}]`, "shapes"},
		{"truncated window", goldenTile(), "windows", cat(uv(1), dangling), "", "truncated varint"},
		{"truncated rect", goldenWindow(), "rects", cat(uv(2), zeros[:4], dangling), "", "record 1: truncated varint"},
		{"empty column spelled out", goldenWindow(), "rects", []byte{}, "", ""},
		{"string index past the table", result, "violations", oneViol, "", "string index 2 past a table of 2"},
		{"violation count past the bytes", result, "violations", cat(uv(1<<40), zeros), "", "declares 1099511627776 records"},
		{"truncated violation", result, "violations", cat(uv(1), []byte{3}, dangling), "", "truncated varint"},
		{"dens row past the bytes", result, "dens", cat(uv(1), uv(1<<50), zeros), "", "declares 1125899906842624 values"},
		{"dens rows past the bytes", result, "dens", cat(uv(1<<50), zeros), "", "declares 1125899906842624 records"},
		{"dens half a value", result, "dens", cat(uv(1), uv(1), zeros[:8], zeros[:4]), "", "trailing"},
	} {
		body := withColumn(t, tc.v, tc.field, tc.col, tc.raw)
		var err error
		if _, isReq := tc.v.(*TileRequest); isReq {
			_, err = ReadRequest(body)
		} else {
			_, err = ReadResult(body)
		}
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v, want it accepted", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if msg := err.Error(); !strings.Contains(msg, tc.field) || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q, want it to name %q and say %q", tc.name, msg, tc.field, tc.want)
		}
	}
}

// A count is checked against the bytes present before anything is
// sized from it: a few dozen bytes declaring 2^60 records must cost a
// few hundred bytes of decoder, not an allocation.
func TestPackedCountBoundsAllocation(t *testing.T) {
	col := base64.StdEncoding.EncodeToString(cat(uv(1<<60), make([]byte, 10)))
	for _, body := range []string{
		`{"schema":4,"stage":"tile","shapes":"` + col + `"}`,
		`{"schema":4,"stage":"tile","windows":"` + col + `"}`,
		`{"schema":4,"stage":"window","rects":"` + col + `"}`,
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadRequest([]byte(body))
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "declares") {
			t.Fatalf("%s: error %v, want the count rejected", body, err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 16<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d", body, len(body), grew)
		}
	}
}

// The readers are strict at every level of a unit or result: a typo
// inside "tile" is a 400 as the same typo beside it is.
func TestPackedRejectsUnknownFields(t *testing.T) {
	req := withColumn(t, goldenTile(), "bogus", nil, "1")
	if _, err := ReadRequest(req); err == nil || !strings.Contains(err.Error(), `unknown field "bogus"`) {
		t.Errorf("request with an unknown field: %v", err)
	}
	res := withColumn(t, &TileResult{}, "bogus", nil, "1")
	if _, err := ReadResult(res); err == nil || !strings.Contains(err.Error(), `unknown field "bogus"`) {
		t.Errorf("result with an unknown field: %v", err)
	}
}

// Values that are wrong but representable must decode, so that it is
// Validate — with the message clients have always seen — that rejects
// them, and a body in another schema's spelling is told so.
func TestPackedHostileValuesReachValidate(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mut        func(*TileRequest)
	}{
		{"inverted shape", "not canonical", func(r *TileRequest) { r.Shapes[6].R = geom.Rect{X0: 2150, Y0: 1500, X1: 1850, Y1: 1570} }},
		{"inverted window", "not canonical", func(r *TileRequest) { r.Windows[0] = geom.Rect{X0: 3000, X1: 0, Y1: 3000} }},
		{"layer 200", "layer 200", func(r *TileRequest) { r.Shapes[0].Layer = 200 }},
		{"shapes out of order", "shape 2 sorts before shape 1", func(r *TileRequest) { r.Shapes[1], r.Shapes[2] = r.Shapes[2], r.Shapes[1] }},
		{"layers out of order", "shape 1 sorts before shape 0", func(r *TileRequest) { r.Shapes[0].Layer = tech.Metal3 }},
		{"rects out of order", "rect 3 sorts before rect 2", func(r *TileRequest) {
			*r = *goldenWindow()
			r.Rects[2], r.Rects[3] = r.Rects[3], r.Rects[2]
		}},
	} {
		r := goldenTile()
		tc.mut(r)
		back, err := requestRoundTrip(t, r)
		if err != nil {
			t.Errorf("%s: rejected by the decoder (%v), want it left to Validate", tc.name, err)
		} else if err := back.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
	old := `{"schema":2,"stage":"tile","coreW":8000,"coreH":8000,"pad":2000,` +
		`"shapes":[{"Layer":4,"R":{"X0":1500,"Y0":1500,"X1":1800,"Y1":1570},"Net":0}]}`
	if _, err := ReadRequest([]byte(old)); err == nil || !strings.Contains(err.Error(), "schema 2, this build speaks 4") {
		t.Errorf("schema-2 body: %v, want the schema named", err)
	}
	// Schema 3 spelled its columns as this build does but promised no
	// order, so it is refused by schema whether or not it happens to be
	// sorted.
	prev := strings.Replace(string(packedJSON(t, goldenTile())), `"schema":4`, `"schema":3`, 1)
	back, err := ReadRequest([]byte(prev))
	if err != nil {
		t.Errorf("schema-3 body: rejected by the decoder (%v), want it left to Validate", err)
	} else if err := back.Validate(); err == nil || !strings.Contains(err.Error(), "schema 3, this build speaks 4") {
		t.Errorf("schema-3 body: Validate = %v, want the schema named", err)
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// packedJSON is a unit or result (v is a *TileRequest or *TileResult)
// as it crosses the wire: its packed form, marshalled.
func packedJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	switch v := v.(type) {
	case *TileRequest:
		return mustMarshal(tb, PackRequest(v))
	case *TileResult:
		return mustMarshal(tb, PackResult(v))
	}
	tb.Fatalf("%T is not a unit or a result", v)
	return nil
}

// requestRoundTrip and resultRoundTrip send r across the wire and back:
// packed, marshalled, strictly read.
func requestRoundTrip(tb testing.TB, r *TileRequest) (*TileRequest, error) {
	return ReadRequest(packedJSON(tb, r))
}

func resultRoundTrip(tb testing.TB, r *TileResult) (*TileResult, error) {
	return ReadResult(packedJSON(tb, r))
}

// fuzzSeeds are the units internal/wirecompat posts, their results,
// and a few bodies that are wrong in ways mutation finds slowly.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	add := func(v any) { seeds = append(seeds, packedJSON(tb, v)) }
	tile := &TileRequest{
		Schema: TileSchema, Stage: StageTile, Tech: *tech.N45(), DRC: true,
		CoreW: 8000, CoreH: 8000, Pad: 2000,
		Shapes: []layout.Shape{
			{Layer: tech.Metal2, R: geom.R(1500, 1500, 1800, 1570)},
			{Layer: tech.Metal2, R: geom.R(1850, 1500, 2150, 1570)},
		},
	}
	window := &TileRequest{
		Schema: TileSchema, Stage: StageWindow, Tech: *tech.N45(), Cond: litho.Nominal, Layer: tech.Metal1,
		WinW: 1500, WinH: 1500, Pad: 1000,
		Rects: []geom.Rect{geom.R(200, 0, 270, 1500), geom.R(340, 0, 410, 1500)},
	}
	// One unit with both columns out of order: it decodes, re-encodes to
	// the same bytes, and is Validate's to refuse.
	unsorted := goldenTile()
	unsorted.Shapes[0], unsorted.Shapes[6] = unsorted.Shapes[6], unsorted.Shapes[0]
	unsorted.Rects = []geom.Rect{geom.R(340, 0, 410, 1500), geom.R(200, 0, 270, 1500)}
	for _, r := range []*TileRequest{tile, window, goldenTile(), goldenWindow(), unsorted} {
		add(r)
	}
	res, err := ExecuteTile(context.Background(), tile)
	if err != nil {
		tb.Fatal(err)
	}
	add(res)
	add(&TileResult{Dens: [][]float64{{0.25, math.Copysign(0, -1)}, {}}, Hotspots: []litho.Hotspot{{Box: geom.R(0, 0, 9, 9)}}})
	huge := base64.StdEncoding.EncodeToString(cat(uv(1<<60), make([]byte, 10)))
	seeds = append(seeds,
		[]byte(`{"schema":4,"stage":"tile","shapes":"`+huge+`"}`),
		[]byte(`{"strings":["a"],"violations":"`+huge+`","dens":"`+huge+`"}`),
		[]byte(`{"schema":4,"bogus":1}`))
	return seeds
}

// FuzzTileWire feeds arbitrary bytes to both readers. They must not
// panic or allocate more than a small multiple of what they were given,
// and whatever decodes must survive its own re-encoding: same columns,
// same bytes, and for a unit that validates, the same key.
func FuzzTileWire(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		req, errReq := ReadRequest(data)
		res, errRes := ReadResult(data)
		runtime.ReadMemStats(&m1)
		// The widest honest amplification is a one-byte density row
		// becoming a 24-byte slice header; decoding is done twice here.
		if grew, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(64<<10+128*len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if errReq == nil && req != nil {
			b1 := packedJSON(t, req)
			again, err := ReadRequest(b1)
			if err != nil {
				t.Fatalf("decode of a re-encoded request: %v\n%s", err, b1)
			}
			if !reflect.DeepEqual(req.Windows, again.Windows) || !reflect.DeepEqual(req.Shapes, again.Shapes) || !reflect.DeepEqual(req.Rects, again.Rects) {
				t.Fatalf("columns changed across a re-encode:\n%+v\n%+v", req, again)
			}
			if b2 := packedJSON(t, again); !bytes.Equal(b1, b2) {
				t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", b1, b2)
			}
			if req.Validate() == nil {
				k1, err1 := req.Key()
				k2, err2 := again.Key()
				if err1 != nil || err2 != nil || k1 != k2 {
					t.Fatalf("key %x (%v) became %x (%v) across a re-encode", k1, err1, k2, err2)
				}
			}
		}
		if errRes == nil && res != nil {
			b1 := packedJSON(t, res)
			again, err := ReadResult(b1)
			if err != nil {
				t.Fatalf("decode of a re-encoded result: %v\n%s", err, b1)
			}
			if !reflect.DeepEqual(res.Violations, again.Violations) || !sameDens(res.Dens, again.Dens) {
				t.Fatalf("columns changed across a re-encode:\n%+v\n%+v", res, again)
			}
			if b2 := packedJSON(t, again); !bytes.Equal(b1, b2) {
				t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", b1, b2)
			}
		}
	})
}
