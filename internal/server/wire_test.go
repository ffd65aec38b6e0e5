package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dfm"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// wireCoord draws around zero, negative, and within a step of either
// int64 end, where the columns' deltas wrap.
func wireCoord(rng *rand.Rand) int64 {
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

func wireRects(rng *rand.Rand) []geom.Rect {
	if rng.Intn(3) == 0 {
		return nil
	}
	rs := make([]geom.Rect, 1+rng.Intn(40))
	for i := range rs {
		rs[i] = geom.Rect{X0: wireCoord(rng), Y0: wireCoord(rng), X1: wireCoord(rng), Y1: wireCoord(rng)}
	}
	return rs
}

// wireJob is a random job as a client submits it: a tile or window unit
// (columns in any order; the codec keeps order, Validate judges it), a
// technique evaluation, or a tile job with no unit.
func wireJob(rng *rand.Rand) JobRequest {
	switch rng.Intn(6) {
	case 0:
		return JobRequest{Technique: "sraf", Seed: rng.Int63() - rng.Int63()}
	case 1:
		return JobRequest{Kind: KindTile}
	}
	u := &tiling.TileRequest{
		Schema: tiling.TileSchema, Stage: tiling.StageWindow, Tech: *tech.N45(),
		Cond: litho.Condition{Defocus: rng.Float64() * 80, Dose: 0.9 + rng.Float64()/5}, Layer: tech.Metal1,
		WinW: 1 + rng.Int63n(20000), WinH: 1 + rng.Int63n(20000), Pad: rng.Int63n(3000), Interior: rng.Intn(2) == 0,
		Rects: wireRects(rng),
	}
	if rng.Intn(2) == 0 {
		u = &tiling.TileRequest{
			Schema: tiling.TileSchema, Stage: tiling.StageTile, Tech: *tech.N45(),
			DRC: rng.Intn(2) == 0, Density: true, DensityWindow: 20000, DensityLayers: []tech.Layer{tech.Metal1, tech.Metal2},
			CoreW: 24000, CoreH: 24000, Pad: 2000, Windows: wireRects(rng),
		}
		for _, r := range wireRects(rng) {
			u.Shapes = append(u.Shapes, layout.Shape{Layer: tech.Layer(rng.Intn(256)), R: r, Net: layout.NetID(rng.Int31() - rng.Int31())})
		}
	}
	return JobRequest{Kind: KindTile, Tile: u, Technique: "ignored", Seed: 7}
}

// wireStrings are rule and detail names that encoding/json escapes.
var wireStrings = []string{"metal2.space", `via "doubled" \ cut`, "enclosure 12 < 15 nm", "間隔 ≥ 70 nm", "<&>", ""}

// wireStatus is a random settled answer: a tile result, a technique
// outcome, or a failure, with either reuse flag.
func wireStatus(rng *rand.Rand) JobStatus {
	st := JobStatus{State: StateDone, Key: "sha256:" + strings.Repeat("ab", 32), Cached: rng.Intn(3) == 0, Deduped: rng.Intn(4) == 0}
	switch rng.Intn(4) {
	case 0:
		st.Result = &dfm.OutcomeView{Technique: "sraf", Verdict: "HIT", CostFrac: rng.Float64(), RuntimeMS: 0.125,
			Metrics: []dfm.Metric{{Name: "m <1>", Before: 1, After: rng.Float64(), Unit: "x", Primary: true}}}
	case 1:
		st.State, st.Kind, st.Error = StateFailed, KindTile, wireStrings[rng.Intn(len(wireStrings))]
	default:
		st.Kind = KindTile
		res := &tiling.TileResult{}
		for _, r := range wireRects(rng) {
			res.Violations = append(res.Violations, drc.Violation{Rule: wireStrings[rng.Intn(len(wireStrings))],
				Layer: tech.Layer(rng.Intn(256)), Marker: r, Detail: wireStrings[rng.Intn(len(wireStrings))]})
		}
		special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1.0 / 3, math.MaxFloat64}
		for range rng.Intn(4) {
			row := make([]float64, rng.Intn(5))
			for j := range row {
				row[j] = special[rng.Intn(len(special))]
			}
			res.Dens = append(res.Dens, row)
		}
		if rng.Intn(2) == 0 {
			res.Hotspots = []litho.Hotspot{{Kind: litho.Bridge, Box: geom.R(0, 0, 90, 40)}}
		}
		st.Tile = res
	}
	return st
}

// wireSeeds are FuzzTileWire's kinds of seed, each a tile unit or tile
// result in its wire form: real units and results, a column that
// declares 2^60 records, and an unknown field.
func wireSeeds(t *testing.T) (units, results []string) {
	tile := tileReq(0)
	window := &tiling.TileRequest{
		Schema: tiling.TileSchema, Stage: tiling.StageWindow, Tech: *tech.N45(), Cond: litho.Nominal, Layer: tech.Metal1,
		WinW: 1500, WinH: 1500, Pad: 1000,
		Rects: []geom.Rect{geom.R(200, 0, 270, 1500), geom.R(340, 0, 410, 1500)},
	}
	res, err := tiling.ExecuteTile(t.Context(), tile)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []*tiling.TileRequest{tile, window} {
		units = append(units, string(mustJSON(t, u)))
	}
	results = append(results, string(mustJSON(t, res)),
		string(mustJSON(t, &tiling.TileResult{Dens: [][]float64{{0.25, math.Copysign(0, -1)}, {}}, Hotspots: []litho.Hotspot{{Box: geom.R(0, 0, 9, 9)}}})))
	huge := base64.StdEncoding.EncodeToString(append(binary.AppendUvarint(nil, 1<<60), make([]byte, 10)...))
	units = append(units, `{"schema":4,"stage":"tile","shapes":"`+huge+`"}`, `{"schema":4,"bogus":1}`,
		`{"schema":2,"stage":"tile","shapes":[{"Layer":4,"R":{"X0":1500,"Y0":1500,"X1":1800,"Y1":1570},"Net":0}]}`,
		`{"schema":4,"stage":"tile","shapes":"AAA"}`)
	results = append(results, `{"strings":["a"],"violations":"`+huge+`","dens":"`+huge+`"}`, `{"bogus":1}`, `{"dens":"!!!!"}`)
	return units, results
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mutations returns body with one byte replaced, one dropped or an
// unknown field added, at random places: bodies that are wrong in most
// of the ways a reader can be asked to refuse, and a few it must take.
func mutations(rng *rand.Rand, body []byte, n int) [][]byte {
	const alphabet = `"{}[],:0129AZaz!/+= nte-.\`
	out := make([][]byte, 0, n)
	for range n {
		b := bytes.Clone(body)
		i := rng.Intn(len(b))
		switch rng.Intn(3) {
		case 0:
			b[i] = alphabet[rng.Intn(len(alphabet))]
		case 1:
			b = append(b[:i], b[i+1:]...)
		default:
			if j := bytes.IndexByte(b[i:], '{'); j >= 0 {
				b = append(b[:i+j+1], append([]byte(`"bogus":1,`), b[i+j+1:]...)...)
			}
		}
		out = append(out, b)
	}
	return out
}

// The tiers write and read a job with the tile in its packed form, in
// one encoding/json pass; that must change nothing anyone can see. The
// encoders write exactly json.Marshal's bytes of the plain JobRequest
// and JobStatus (the answer a newline after them, as WriteJSON has
// always ended it), and each decoder takes and refuses exactly the
// bodies the plain reading does — the node's strict Decoder on a
// JobRequest, json.Unmarshal on a JobStatus — with equal values and the
// same error.
func TestJobWireMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var requests, answers [][]byte
	for range 300 {
		req := wireJob(rng)
		got, err := EncodeJobRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustJSON(t, req); !bytes.Equal(got, want) {
			t.Fatalf("request encoder wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
		requests = append(requests, got)

		st := wireStatus(rng)
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, packStatus(st))
		if want := append(mustJSON(t, st), '\n'); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("answer encoder wrote\n%s\njson.Marshal writes\n%s", rec.Body.Bytes(), want)
		}
		answers = append(answers, rec.Body.Bytes())
	}
	units, results := wireSeeds(t)
	for _, u := range units {
		requests = append(requests, []byte(`{"kind":"tile","tile":`+u+`}`))
	}
	for _, r := range results {
		answers = append(answers, []byte(`{"state":"done","kind":"tile","key":"k","tile":`+r+`}`))
	}
	// A node that has grown a field is still read, as json.Unmarshal reads it.
	answers = append(answers, []byte(`{"state":"done","key":"k","queuedMs":3,"tile":{}}`), []byte(`{"state":"done"} x`))

	var took, refused int
	count := func(err error) {
		if err == nil {
			took++
		} else {
			refused++
		}
	}
	for i, body := range requests {
		for _, b := range append(mutations(rng, body, 20), body) {
			got, err := decodeJobRequest(b)
			var want JobRequest
			_, wantErr := strictDecode(b, &want)
			count(err)
			if !sameOutcome(err, wantErr) || err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("request %d: %s\nread as %+v (%v), the plain reading %+v (%v)", i, b, got, err, want, wantErr)
			}
		}
	}
	for i, body := range answers {
		for _, b := range append(mutations(rng, body, 20), body) {
			got, err := DecodeJobStatus(b)
			var want JobStatus
			wantErr := json.Unmarshal(b, &want)
			count(err)
			if !sameOutcome(err, wantErr) || err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("answer %d: %s\nread as %+v (%v), json.Unmarshal %+v (%v)", i, b, got, err, want, wantErr)
			}
		}
	}
	if took < 1000 || refused < 1000 {
		t.Fatalf("%d bodies taken, %d refused: too few of one for the comparison to mean much", took, refused)
	}
}

// sameOutcome reports whether two readings both took a body, or both
// refused it saying the same thing.
func sameOutcome(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
