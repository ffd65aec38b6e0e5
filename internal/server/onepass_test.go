package server

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// fullestUnit is a tiling.TileClient that executes each unit in
// process and keeps the one with the most shapes, and its result.
type fullestUnit struct {
	mu  sync.Mutex
	req *tiling.TileRequest
	res *tiling.TileResult
}

func (f *fullestUnit) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	res, err := tiling.ExecuteTile(ctx, req)
	if err != nil {
		return nil, tiling.TileServed{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.req == nil || len(req.Shapes) > len(f.req.Shapes) {
		f.req, f.res = req, res
	}
	return res, tiling.TileServed{}, nil
}

// fleetUnit is the fullest signoff tile of the chip BenchmarkFleetChip
// sends through the fleet (seed 11, 50k rects, tile 24000, halo 2000,
// DRC and density), as the engine ships it, and its result: what one
// job carries each way at fleet scale.
func fleetUnit(tb testing.TB) (*tiling.TileRequest, *tiling.TileResult) {
	tb.Helper()
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, TargetRects: 50_000, Defects: 8})
	if err != nil {
		tb.Fatal(err)
	}
	var f fullestUnit
	o := tiling.Opts{Tile: 24000, Halo: 2000, Workers: 2, DRC: true, Density: true, DensityWindow: 3000}
	if _, err := tiling.DistEvaluate(context.Background(), tt, tiling.NewExtractor(l.Top), o, &f); err != nil {
		tb.Fatal(err)
	}
	return f.req, f.res
}

// wireCase is a body for one decoder and what it must come to.
type wireCase struct {
	request bool // decodeJobRequest, else DecodeJobStatus
	body    string
	want    string // digest(re-encoded, 8) of a body taken
}

// repeatedTiles are bodies that name the tile twice: as "tile" twice,
// as "Tile" beside "tile", and with the second spelled with an escape.
// encoding/json would merge the two objects into one; each decoder
// reads the last member whole, as the two-stage reading always has. The
// digests of what each re-encodes to were minted before the one pass
// existed.
var repeatedTiles = func() []wireCase {
	const (
		first  = `{"schema":4,"stage":"tile","coreW":8000,"coreH":8000,"pad":2000,"drc":true,"shapes":"AQQAAAQEAA=="}`
		last   = `{"schema":4,"stage":"tile","coreW":6000,"coreH":6000,"pad":1000}`
		result = `{"violations":"AQQAAAQEAAE=","strings":["r","d"]}`
		dens   = `{"dens":"AQA="}`
	)
	var cases []wireCase
	for _, names := range [][2]string{{`"tile"`, `"tile"`}, {`"Tile"`, `"tile"`}, {`"tile"`, `"ti\u006ce"`}} {
		cases = append(cases,
			wireCase{true, `{"kind":"tile",` + names[0] + `:` + first + `,` + names[1] + `:` + last + `}`, "48cd5864348b51ee"},
			wireCase{false, `{"state":"done","kind":"tile","key":"k",` + names[0] + `:` + result + `,` + names[1] + `:` + dens + `}`, "5abc8c5e3137dcc3"})
	}
	return cases
}()

// reencode reads body with the decoder the case names and re-encodes
// what it took.
func reencode(request bool, body []byte) ([]byte, error) {
	if request {
		req, err := decodeJobRequest(body)
		if err != nil {
			return nil, err
		}
		return EncodeJobRequest(req)
	}
	st, err := DecodeJobStatus(body)
	if err != nil {
		return nil, err
	}
	return encodeAnswer(st), nil
}

func TestJobWireRepeatedTile(t *testing.T) {
	for _, tc := range repeatedTiles {
		if oneTile([]byte(tc.body)) {
			t.Errorf("the one pass would read %s", tc.body)
		}
		got, err := reencode(tc.request, []byte(tc.body))
		switch {
		case err != nil:
			t.Errorf("%s: refused: %v", tc.body, err)
		case digest(got, 8) != tc.want:
			t.Errorf("%s\nre-encodes as %s (digest %s), want digest %s", tc.body, got, digest(got, 8), tc.want)
		}
	}
}

// Every job and answer the encoders write is read in one pass: the
// guard looks at member names, not at escapes in values such as the
// \u003c encoding/json writes for '<' in a rule's detail.
func TestJobWireWrittenBodiesReadOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for range 300 {
		req, err := EncodeJobRequest(wireJob(rng))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := requestOnce(req); !ok {
			t.Errorf("the one pass passes on a job as written: %.300s", req)
		}
		answer := encodeAnswer(wireStatus(rng))
		if _, ok := statusOnce(answer); !ok {
			t.Errorf("the one pass passes on an answer as written: %.300s", answer)
		}
	}
}

// The one pass holds a job's bytes once: decodeJobRequest of the
// fleet's fullest tile allocates the unit it returns and at most four
// times the body besides (the decoder's growing buffer and the decoded
// columns). Holding the tile raw and reading it with a second decoder,
// as the two-stage reading does, costs about 6.6 times the body.
func TestDecodeJobRequestReadsOnce(t *testing.T) {
	tile, _ := fleetUnit(t)
	body, err := EncodeJobRequest(JobRequest{Kind: KindTile, Tile: tile})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 10
	if _, err := decodeJobRequest(body); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		decodeJobRequest(body) //nolint:errcheck // read once above
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	unit := uint64(len(tile.Shapes))*uint64(unsafe.Sizeof(layout.Shape{})) + uint64(len(tile.Windows))*uint64(unsafe.Sizeof(geom.Rect{}))
	t.Logf("decodeJobRequest of a %d-byte body (%d shapes, %d windows): %d bytes a call, the unit %d", len(body), len(tile.Shapes), len(tile.Windows), perCall, unit)
	if bound := unit + 4*uint64(len(body)); perCall > bound {
		t.Fatalf("decodeJobRequest of a %d-byte body allocates %d bytes a call, bound %d (the unit's %d and four times the body)",
			len(body), perCall, bound, unit)
	}
}

// FuzzJobWire holds the one pass to the two-stage reading on any bytes,
// read as a request and as an answer: a body the one pass takes, the
// two-stage reading takes too, and into a job or answer that is the
// same and re-encodes to the same bytes. Seeds: the golden's bodies,
// one mutant of each, and the repeated tiles.
func FuzzJobWire(f *testing.F) {
	requests, answers := jobWireBodies(f)
	rng := rand.New(rand.NewSource(58))
	for _, body := range append(requests, answers...) {
		f.Add(body)
		for _, m := range mutations(rng, body, 1) {
			f.Add(m)
		}
	}
	for _, tc := range repeatedTiles {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if once, ok := requestOnce(body); ok {
			two, err := readJobRequest(body)
			if err != nil {
				t.Fatalf("the one pass takes the request %q, the two-stage reading refuses it: %v", body, err)
			}
			sameReading(t, body, once, two, func(req JobRequest) ([]byte, error) { return EncodeJobRequest(req) })
		}
		if once, ok := statusOnce(body); ok {
			two, err := readJobStatus(body)
			if err != nil {
				t.Fatalf("the one pass takes the answer %q, the two-stage reading refuses it: %v", body, err)
			}
			sameReading(t, body, once, two, func(st JobStatus) ([]byte, error) { return encodeAnswer(st), nil })
		}
	})
}

// sameReading fails t unless once and two are equal and encode alike.
func sameReading[T any](t *testing.T, body []byte, once, two T, encode func(T) ([]byte, error)) {
	t.Helper()
	a, errA := encode(once)
	b, errB := encode(two)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("%q\nre-encodes as %s (%v) read once, as %s (%v) read in two stages", body, a, errA, b, errB)
	}
	if !reflect.DeepEqual(once, two) {
		t.Fatalf("%q\nreads as %+v once, as %+v in two stages", body, once, two)
	}
}

// BenchmarkJobWire is what one job of the fleet's fullest signoff tile
// pays to cross the wire once, each way, as the tiers do it: a client's
// EncodeJobRequest and the node's decodeJobRequest, then the node's
// WriteJobStatus and the client's DecodeJobStatus of its result. MB/s
// is over the bytes on the wire.
func BenchmarkJobWire(b *testing.B) {
	tile, res := fleetUnit(b)
	b.Logf("tile: %d shapes, %d windows; result: %d violations, %d density rows",
		len(tile.Shapes), len(tile.Windows), len(res.Violations), len(res.Dens))
	run := func(name string, encode func() ([]byte, error), decode func([]byte) error) {
		b.Run(name, func(b *testing.B) {
			wire, err := encode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if wire, err = encode(); err != nil {
					b.Fatal(err)
				}
				if err := decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("request", func() ([]byte, error) { return EncodeJobRequest(JobRequest{Kind: KindTile, Tile: tile}) },
		func(wire []byte) error { _, err := decodeJobRequest(wire); return err })
	run("answer", func() ([]byte, error) {
		return encodeAnswer(JobStatus{State: StateDone, Kind: KindTile, Key: "sha256:" + strings.Repeat("ab", 32), Tile: res}), nil
	}, func(wire []byte) error { _, err := DecodeJobStatus(wire); return err })
}
