package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
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
func wireSeeds(t testing.TB) (units, results []string) {
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
		units = append(units, string(mustJSON(t, tiling.PackRequest(u))))
	}
	results = append(results, string(mustJSON(t, tiling.PackResult(res))),
		string(mustJSON(t, tiling.PackResult(&tiling.TileResult{Dens: [][]float64{{0.25, math.Copysign(0, -1)}, {}}, Hotspots: []litho.Hotspot{{Box: geom.R(0, 0, 9, 9)}}}))))
	huge := base64.StdEncoding.EncodeToString(append(binary.AppendUvarint(nil, 1<<60), make([]byte, 10)...))
	units = append(units, `{"schema":4,"stage":"tile","shapes":"`+huge+`"}`, `{"schema":4,"bogus":1}`,
		`{"schema":2,"stage":"tile","shapes":[{"Layer":4,"R":{"X0":1500,"Y0":1500,"X1":1800,"Y1":1570},"Net":0}]}`,
		`{"schema":4,"stage":"tile","shapes":"AAA"}`)
	results = append(results, `{"strings":["a"],"violations":"`+huge+`","dens":"`+huge+`"}`, `{"bogus":1}`, `{"dens":"!!!!"}`)
	return units, results
}

func mustJSON(t testing.TB, v any) []byte {
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

var update = flag.Bool("update", false, "re-mint testdata/jobwire.golden from this build's encoders and decoders")

const jobWireGolden = "testdata/jobwire.golden"

// jobWireBodies are the bodies TestJobWireGolden pins: seeded jobs and
// answers as the encoders write them, wireSeeds' units and results in
// a job envelope, and answers from nodes of other builds.
func jobWireBodies(t testing.TB) (requests, answers [][]byte) {
	rng := rand.New(rand.NewSource(53))
	for range 300 {
		req, err := EncodeJobRequest(wireJob(rng))
		if err != nil {
			t.Fatal(err)
		}
		requests = append(requests, req)
		answers = append(answers, encodeAnswer(wireStatus(rng)))
	}
	units, results := wireSeeds(t)
	for _, u := range units {
		requests = append(requests, []byte(`{"kind":"tile","tile":`+u+`}`))
	}
	for _, r := range results {
		answers = append(answers, []byte(`{"state":"done","kind":"tile","key":"k","tile":`+r+`}`))
	}
	// A node that has grown a field, one that still sends the result's
	// attempts and retryable (which left the answer with the workload
	// retry), and data after an answer.
	answers = append(answers, []byte(`{"state":"done","key":"k","queuedMs":3,"tile":{}}`), []byte(`{"state":"done"} x`),
		[]byte(`{"state":"failed","key":"k","result":{"technique":"sraf","verdict":"HYPE","costFrac":0,"runtimeMs":1,"attempts":2,"error":"workload: x","errorKind":"workload","retryable":true},"error":"workload: x"}`))
	return requests, answers
}

// encodeAnswer is st as a node answers it.
func encodeAnswer(st JobStatus) []byte {
	rec := httptest.NewRecorder()
	WriteJobStatus(rec, st)
	return rec.Body.Bytes()
}

// digest is a short hex sha256 of b.
func digest(b []byte, n int) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:n])
}

// The job wire, pinned: what the encoders write for seeded jobs and
// answers, and what each decoder makes of every body and 20 mutants of
// it. A golden line is the body's kind and a digest of its bytes, then
// one word per reading, the mutants first and the body last: "+" and a
// digest of what a body taken re-encodes to, or "-" and a digest of the
// error a body refused is answered with. The golden was minted while
// the tile types still had JSON methods and the decoders fell back to
// them, so it holds the packed envelope, now the only codec, to what
// they answered, refusals' texts included; -update re-mints it, and a
// diff of it is a change to the wire.
func TestJobWireGolden(t *testing.T) {
	requests, answers := jobWireBodies(t)
	rng := rand.New(rand.NewSource(56))
	type reading struct{ body, word, text string }
	var lines []string
	var readings [][]reading
	var took, refused int
	pin := func(kind string, body []byte, read func([]byte) ([]byte, error)) {
		words := []string{kind, digest(body, 8)}
		var rs []reading
		for _, b := range append(mutations(rng, body, 20), body) {
			r := reading{body: string(b)}
			if again, err := read(b); err != nil {
				r.word, r.text = "-"+digest([]byte(err.Error()), 4), err.Error()
				refused++
			} else {
				r.word, r.text = "+"+digest(again, 4), string(again)
				took++
			}
			words = append(words, r.word)
			rs = append(rs, r)
		}
		lines = append(lines, strings.Join(words, " "))
		readings = append(readings, rs)
	}
	for _, body := range requests {
		pin("request", body, func(b []byte) ([]byte, error) { return reencode(true, b) })
	}
	for _, body := range answers {
		pin("answer", body, func(b []byte) ([]byte, error) { return reencode(false, b) })
	}
	if took < 1000 || refused < 1000 {
		t.Fatalf("%d bodies taken, %d refused: too few of one for the pin to mean much", took, refused)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(jobWireGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(jobWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d bodies, the golden pins %d", len(lines), len(wantLines))
	}
	for i, line := range lines {
		gotWords, wantWords := strings.Fields(line), strings.Fields(wantLines[i])
		if len(wantWords) != len(gotWords) {
			t.Errorf("body %d: the golden line has %d words, want %d", i, len(wantWords), len(gotWords))
			continue
		}
		if gotWords[1] != wantWords[1] {
			t.Errorf("body %d: %s is encoded as\n%.300s\nwhose digest %s the golden does not pin (%s)", i, gotWords[0], readings[i][20].body, gotWords[1], wantWords[1])
			continue
		}
		for j, r := range readings[i] {
			if w := wantWords[2+j]; r.word != w {
				t.Errorf("body %d, reading %d: %.300s\nread as %s %.300s; the golden pins %s", i, j, r.body, r.word, r.text, w)
			}
		}
	}
}

// Fixed bodies each decoder must take or refuse, and what a refusal
// must say, word for word: the surface a peer of another build meets.
// Every text is the one the tile types' own JSON methods answered.
func TestJobWireTakesAndRefuses(t *testing.T) {
	const tile = `{"kind":"tile","tile":{"schema":4,"stage":"tile","coreW":8000,"coreH":8000,"pad":2000,`
	const answer = `{"state":"done","kind":"tile","key":"k","tile":{`
	for _, tc := range []struct {
		name    string
		request bool // decodeJobRequest, else DecodeJobStatus
		body    string
		want    string // what the refusal says; "" for a body taken
	}{
		{"request", true, tile + `"shapes":"AQQAAAQEAA=="}}`, ""},
		{"unknown field beside a unit", true, `{"bogus":1,` + tile[1:] + `"drc":true}}`, `json: unknown field "bogus"`},
		{"unknown field inside a unit", true, tile + `"bogus":1}}`, `tiling: tile request: json: unknown field "bogus"`},
		{"type error beside a unit", true, `{"kind":"tile","seed":"7"}`, "json: cannot unmarshal string into Go struct field JobRequest.seed of type int64"},
		{"type error inside a unit", true, tile + `"drc":1}}`, "tiling: tile request: json: cannot unmarshal number into Go struct field RequestWire.plainRequest.drc of type bool"},
		{"a string for a request", true, `"tile"`, "json: cannot unmarshal string into Go value of type server.JobRequest"},
		{"schema-2 unit", true, `{"kind":"tile","tile":{"schema":2,"stage":"tile","shapes":[{"Layer":4,"R":{"X0":0,"Y0":0,"X1":1,"Y1":1},"Net":0}]}}`,
			"tiling: tile request schema 2, this build speaks 4"},
		{"shapes spelled as an array", true, tile + `"shapes":[{"Layer":4,"R":{"X0":0,"Y0":0,"X1":1,"Y1":1},"Net":0}]}}`,
			"tiling: tile request: json: cannot unmarshal object into Go struct field RequestWire.shapes of type uint8"},
		{"windows spelled as an array", true, tile + `"windows":[{"X0":0,"Y0":0,"X1":1,"Y1":1}]}}`,
			"tiling: tile request: json: cannot unmarshal object into Go struct field RequestWire.windows of type uint8"},
		{"rects spelled as an array", true, tile + `"rects":[{"X0":0,"Y0":0,"X1":1,"Y1":1}]}}`,
			"tiling: tile request: json: cannot unmarshal object into Go struct field RequestWire.rects of type uint8"},
		{"shapes not base64", true, tile + `"shapes":"AAA"}}`, "tiling: tile request: shapes column: illegal base64 data at input byte 0"},
		{"windows not base64", true, tile + `"windows":"!!!!"}}`, "tiling: tile request: windows column: illegal base64 data at input byte 0"},
		{"rects not base64", true, tile + `"shapes":"AQQAAAQEAA==","rects":"!!!!"}}`, "tiling: tile request: rects column: illegal base64 data at input byte 0"},
		{"rects not base64 after an escaped column", true, tile + `"shapes":"AQQAAAQEAA\u003d\u003d","rects":"!!!!"}}`,
			"tiling: tile request: rects column: illegal base64 data at input byte 0"},
		{"rects not base64 after an escaped quote", true, `{"kind":"tile","technique":"a\"windows\":\"","tile":{"schema":4,"rects":"!!!!"}}`,
			"tiling: tile request: rects column: illegal base64 data at input byte 0"},
		{"null request", true, `null`, ""},
		{"data after the request", true, `{"technique":"sraf","seed":1} garbage`, "invalid character 'g' after top-level value"},
		{"a second value after the request", true, `{"technique":"sraf","seed":1}{"kind":"x"}`, "invalid character '{' after top-level value"},
		{"white space after the request", true, "{\"technique\":\"sraf\",\"seed\":1} \r\n\t", ""},
		{"schema-3 unit not base64", true, strings.Replace(tile, `"schema":4`, `"schema":3`, 1) + `"shapes":"AAA"}}`,
			"tiling: tile request schema 3, this build speaks 4"},

		{"answer", false, answer + `"violations":"AQQAAAQEAAE=","strings":["r","d"]}}`, ""},
		{"null answer", false, `null`, ""},
		{"no answer", false, ` `, "unexpected end of JSON input"},
		{"an array for an answer", false, `[]`, "json: cannot unmarshal array into Go value of type server.JobStatus"},
		{"type error beside the tile", false, `{"state":"done","cached":"yes","tile":{}}`, "json: cannot unmarshal string into Go struct field JobStatus.cached of type bool"},
		{"type error in the result", false, `{"state":"done","result":{"costFrac":"x"}}`, "json: cannot unmarshal string into Go struct field OutcomeView.result.costFrac of type float64"},
		{"errors beside and inside the tile", false, `{"cached":"yes","tile":{"dens":"!!!!"}}`, "tiling: tile result: dens column: illegal base64 data at input byte 0"},
		{"a tile that is not an object", false, `{"state":"done","tile":[]}`, "tiling: tile result: json: cannot unmarshal array into Go value of type tiling.ResultWire"},
		{"the tile twice", false, `{"tile":{"dens":"AQA="},"state":"done","tile":{"dens":"!!!!"}}`, "tiling: tile result: dens column: illegal base64 data at input byte 0"},
		{"unknown field beside the tile", false, `{"state":"done","key":"k","queuedMs":3,"tile":{}}`, ""},
		{"unknown field inside the tile", false, answer + `"bogus":1}}`, `tiling: tile result: json: unknown field "bogus"`},
		{"data after the answer", false, `{"state":"done"} x`, "invalid character 'x' after top-level value"},
		{"leftover attempts and retryable", false, `{"state":"failed","key":"k","result":{"technique":"sraf","verdict":"HYPE",` +
			`"costFrac":0,"runtimeMs":1,"attempts":2,"error":"workload: x","errorKind":"workload","retryable":true},"error":"workload: x"}`, ""},
		{"violations spelled as an array", false, answer + `"violations":[{"Rule":"r"}]}}`,
			"tiling: tile result: json: cannot unmarshal object into Go struct field ResultWire.violations of type uint8"},
		{"dens spelled as an array", false, answer + `"dens":[[0.5]]}}`, "tiling: tile result: json: cannot unmarshal array into Go struct field ResultWire.dens of type uint8"},
		{"violations not base64", false, answer + `"violations":"AAA"}}`, "tiling: tile result: violations column: illegal base64 data at input byte 0"},
		{"dens not base64", false, answer + `"dens":"!!!!"}}`, "tiling: tile result: dens column: illegal base64 data at input byte 0"},
	} {
		var err error
		if tc.request {
			_, err = decodeJobRequest([]byte(tc.body))
		} else {
			_, err = DecodeJobStatus([]byte(tc.body))
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused (%v), want it taken", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: taken, want it refused", tc.name)
		case err != nil && err.Error() != tc.want:
			t.Errorf("%s: %q, want %q", tc.name, err, tc.want)
		}
	}
}
