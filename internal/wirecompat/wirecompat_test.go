// Package wirecompat pins the HTTP contract shared by a single dfmd
// node and a dfmrouter fleet front. The router's whole pitch is that
// clients cannot tell it from one big dfmd — so every check here runs
// twice, once against each, and any divergence in status codes, error
// bodies, Retry-After signaling, or settled answers is a bug in
// whichever side drifted.
package wirecompat

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dfm"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// blockSeed marks "plug" jobs whose task blocks until the deployment's
// gate closes, at cleanup — the deterministic way to occupy the single
// worker and fill the queue so the next submit must shed. A heldSeed
// job blocks until the suite releases it.
const (
	blockSeed = 4242
	heldSeed  = 4141
)

// deployment is one system under test: a bare dfmd or a dfmd fleet
// behind a router, plus the handles the suite needs to drive it into
// deterministic states.
type deployment struct {
	name string
	url  string
	// stats reads the backing dfmd's counters (the single node in both
	// shapes), for occupancy waits.
	stats func() server.Stats
	// release lets heldSeed jobs finish.
	release func()
}

// contractConfig is the dfmd config both deployments run: one worker,
// one queue slot, immediate shed — small enough to overload with two
// plug jobs. Tasks for blockSeed park on the gate and those for
// heldSeed on held; everything else settles instantly (eval) or
// computes for real (tile).
func contractConfig(gate, held chan struct{}) server.Config {
	cfg := server.Config{Workers: 1, Queue: 1, MaxWait: 0}
	cfg.TaskFactory = func(req server.JobRequest) (harness.Task, error) {
		if req.Kind == server.KindTile {
			tr := req.Tile
			return harness.Task{Name: req.Kind + "/" + tr.Stage, Run: func(ctx context.Context, _ int) (any, error) {
				return tiling.ExecuteTile(ctx, tr)
			}}, nil
		}
		if _, err := dfm.TechniqueTask(tech.N45(), req.Technique, req.Seed, dfm.DefaultBlock()); err != nil {
			return harness.Task{}, err
		}
		var wait chan struct{}
		switch {
		case req.Seed >= blockSeed:
			wait = gate
		case req.Seed == heldSeed:
			wait = held
		}
		return harness.Task{Name: req.Technique, Run: func(ctx context.Context, _ int) (any, error) {
			if wait != nil {
				select {
				case <-wait:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			o := dfm.Outcome{
				Technique: req.Technique,
				Metrics: []dfm.Metric{{
					Name: "m", Before: 1, After: 2, Unit: "x",
					HigherIsBetter: true, Primary: true,
				}},
			}
			o.Judge(0.05, 0.10)
			return o, nil
		}}, nil
	}
	return cfg
}

// stubConfig refuses what the deployed task factory refuses and
// evaluates nothing: a technique evaluation settles as an empty outcome
// and a tile unit as an empty result, at once.
func stubConfig(_, _ chan struct{}) server.Config {
	cfg := server.Config{Workers: 1, Queue: 64}
	cfg.TaskFactory = func(req server.JobRequest) (harness.Task, error) {
		var v any = &tiling.TileResult{}
		if req.Kind != server.KindTile {
			if _, err := dfm.TechniqueTask(tech.N45(), req.Technique, req.Seed, dfm.DefaultBlock()); err != nil {
				return harness.Task{}, err
			}
			v = dfm.Outcome{Technique: req.Technique}
		}
		return harness.Task{Name: "stub", Run: func(context.Context, int) (any, error) { return v, nil }}, nil
	}
	return cfg
}

func startDfmd(t *testing.T) *deployment   { return deploy(t, "dfmd", contractConfig) }
func startRouter(t *testing.T) *deployment { return deploy(t, "router", contractConfig) }

// deploy starts one node on config and, for "router", a router in front
// of it. Cleanup opens the node's gates before it shuts anything down,
// so no job is left parked.
func deploy(t testing.TB, name string, config func(gate, held chan struct{}) server.Config) *deployment {
	t.Helper()
	gate, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	s := server.New(config(gate, held))
	d := &deployment{name: name, stats: s.Stats, release: release}
	if name == "dfmd" {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			close(gate)
			release()
			ts.Close()
			s.Shutdown(context.Background())
		})
		d.url = ts.URL
		return d
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed in cleanup
	// MaxAttempts 1: the contract under test is the passthrough shape,
	// not the retry machinery — a shed from the node must surface as
	// the router's own 429, immediately.
	r, err := router.New(router.Config{
		Backends:      []string{"http://" + ln.Addr().String()},
		CheckInterval: time.Hour, MaxAttempts: 1,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		close(gate)
		release()
		front.Close()
		r.Shutdown(context.Background())
		hs.Close()
		s.Shutdown(context.Background())
	})
	d.url = front.URL
	return d
}

func postJSON(t *testing.T, url string, job server.JobRequest) *http.Response {
	t.Helper()
	return postClaimed(t, url, job, "", true)
}

// postClaimed posts job with claim as the content address a client
// states beside it; absent sends no such header at all.
func postClaimed(t *testing.T, url string, job server.JobRequest, claim string, absent bool) *http.Response {
	t.Helper()
	b, err := server.EncodeJobRequest(job)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if !absent {
		req.Header.Set(server.HeaderRouteKey, claim)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// answer is one submission's outcome: its status and body, or the
// error that ended it.
type answer struct {
	code int
	body []byte
	err  error
}

// submit posts job under ctx and delivers its answer on the returned
// channel once the job settles or ctx ends.
func submit(ctx context.Context, url string, job server.JobRequest) <-chan answer {
	out := make(chan answer, 1)
	b, err := server.EncodeJobRequest(job)
	if err != nil {
		out <- answer{err: err}
		return out
	}
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(b))
		if err != nil {
			out <- answer{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		out <- answer{resp.StatusCode, body, err}
	}()
	return out
}

func postRaw(t *testing.T, url string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// status reads a job answer as a client does.
func status(t *testing.T, resp *http.Response) server.JobStatus {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	st, err := server.DecodeJobStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// tileReq is a small stage-A unit with one guaranteed metal2 spacing
// violation, the same work both deployments must answer identically.
func tileReq() *tiling.TileRequest {
	return &tiling.TileRequest{
		Schema: tiling.TileSchema, Stage: tiling.StageTile,
		Tech: *tech.N45(), DRC: true,
		CoreW: 8000, CoreH: 8000, Pad: 2000,
		Shapes: []layout.Shape{
			{Layer: tech.Metal2, R: geom.R(1500, 1500, 1800, 1570)},
			{Layer: tech.Metal2, R: geom.R(1850, 1500, 2150, 1570)},
		},
	}
}

// windowReq is a small stage-B unit: two metal1 lines in a 1500 nm
// window.
func windowReq() *tiling.TileRequest {
	return &tiling.TileRequest{
		Schema: tiling.TileSchema, Stage: tiling.StageWindow,
		Tech: *tech.N45(), Cond: litho.Nominal, Layer: tech.Metal1,
		WinW: 1500, WinH: 1500, Pad: 1000,
		Rects: []geom.Rect{geom.R(200, 0, 270, 1500), geom.R(340, 0, 410, 1500)},
	}
}

func TestContract(t *testing.T) {
	for _, start := range []func(*testing.T) *deployment{startDfmd, startRouter} {
		d := start(t)
		t.Run(d.name, func(t *testing.T) { suite(t, d) })
	}
}

// FuzzSubmit posts arbitrary bytes under an arbitrary placement claim
// to the one job route of both tiers, whose nodes run stub tasks: each
// body is decoded, validated and keyed, and nothing is evaluated. Every
// answer is 200, 400 or 413 with a JSON body, never a dropped
// connection (what a handler panic looks like from outside), and the
// router answers each body with dfmd's status and bytes, but for the
// runtime each node measured.
func FuzzSubmit(f *testing.F) {
	measured := regexp.MustCompile(`"runtimeMs":[^,}]*`)
	dfmd, routed := deploy(f, "dfmd", stubConfig), deploy(f, "router", stubConfig)
	for _, job := range []server.JobRequest{
		{Technique: "sraf", Seed: 1},
		{Technique: "no-such"},
		{Kind: server.KindTile, Tile: tileReq()},
		{Kind: server.KindTile, Tile: windowReq()},
		{Kind: "delta"},
	} {
		b, err := server.EncodeJobRequest(job)
		if err != nil {
			f.Fatal(err)
		}
		claim, _ := server.KeyForRequest(job)
		f.Add(b, claim)
	}
	f.Add([]byte(`{"kind":"tile","tile":{"schema":4,"stage":"tile","shapes":"AAA"}}`), "invalid:sraf")
	f.Add([]byte("not JSON \x00\xff at all"), "")
	f.Fuzz(func(t *testing.T, body []byte, claim string) {
		for _, c := range []byte(claim) {
			if c < ' ' && c != '\t' || c == 0x7f {
				t.Skip("not a header value an HTTP client sends")
			}
		}
		var got [2]answer
		for i, d := range []*deployment{dfmd, routed} {
			req, err := http.NewRequest(http.MethodPost, d.url+"/v1/jobs", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(server.HeaderRouteKey, claim)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s dropped the connection: %v", d.name, err)
			}
			got[i].code = resp.StatusCode
			got[i].body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s cut its answer short: %v", d.name, err)
			}
			switch got[i].code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s answered %d %s", d.name, got[i].code, got[i].body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" || !json.Valid(got[i].body) {
				t.Fatalf("%s answered %d with %q, not a JSON body: %s", d.name, got[i].code, ct, got[i].body)
			}
			got[i].body = measured.ReplaceAll(got[i].body, []byte(`"runtimeMs":0`))
		}
		if got[0].code != got[1].code || !bytes.Equal(got[0].body, got[1].body) {
			t.Fatalf("router answered %d %s, dfmd %d %s", got[1].code, got[1].body, got[0].code, got[0].body)
		}
	})
}

// suite runs every contract check against one deployment. Order
// matters only for the final overload check, which plugs the worker.
func suite(t *testing.T, d *deployment) {
	// A route needs a client: the ones nothing called — polling a job by
	// ID among them — are gone from both tiers and answer as any path
	// neither serves does, and ?deep=1 is an unknown parameter of the
	// one health probe there is.
	t.Run("unknown-route", func(t *testing.T) {
		for _, path := range []string{"/v1/techniques", "/v1/jobs/j-000001", "/v1/jobs/n0.j-000001",
			"/v1/jobs/j-000001/result", "/v1/jobs/n0.j-000001/result", "/v1/nope"} {
			resp, err := http.Get(d.url + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
			}
		}
		resp, err := http.Get(d.url + "/healthz?deep=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /healthz?deep=1 = %d, want the shallow probe's 200", resp.StatusCode)
		}
		if h := decode[map[string]any](t, resp); h["status"] != "ok" || h["queueCap"] != nil {
			t.Errorf("GET /healthz?deep=1 body %v, want the shallow probe's", h)
		}
	})

	t.Run("submit-poll-result", func(t *testing.T) {
		// A submission is answered once its job settles, whatever the
		// query string: 200 and the result, and for a duplicate the same
		// key served from cache.
		resp := postJSON(t, d.url+"/v1/jobs?wait=0", server.JobRequest{Technique: "sraf", Seed: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit status = %d, want 200", resp.StatusCode)
		}
		st := status(t, resp)
		if st.State != server.StateDone || st.Result == nil || !strings.HasPrefix(st.Key, "sha256:") {
			t.Fatalf("submit body: %+v", st)
		}
		if st.Kind != "" {
			t.Fatalf("eval job kind = %q on the wire, want empty (legacy compat)", st.Kind)
		}
		dup := postJSON(t, d.url+"/v1/jobs", server.JobRequest{Technique: "sraf", Seed: 1})
		dst := status(t, dup)
		if !dst.Cached || dst.Key != st.Key {
			t.Fatalf("duplicate submit not a cache hit on the same key: %+v vs key %s", dst, st.Key)
		}
	})

	// A job answer declares its length, on both tiers: marshalled
	// before it is written, and relayed with the length of the bytes
	// that came, it is never chunked, so a reader sizes its buffer once.
	// The answer here, 440 violations, is past the size (2 KiB) net/http
	// would otherwise send in chunks.
	t.Run("answer-declares-length", func(t *testing.T) {
		u := tileReq()
		u.Shapes = nil
		for x := int64(0); x < 7700; x += 700 {
			for _, x0 := range []int64{x, x + 350} {
				for y := int64(0); y < 8000; y += 200 {
					u.Shapes = append(u.Shapes, layout.Shape{Layer: tech.Metal2, R: geom.R(x0, y, x0+300, y+70)})
				}
			}
		}
		resp := postJSON(t, d.url+"/v1/jobs", server.JobRequest{Kind: server.KindTile, Tile: u})
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) < 4<<10 {
			t.Fatalf("answer %d of %d bytes, want 200 and over 4 KiB", resp.StatusCode, len(body))
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Fatalf("answer of %d bytes sent with transfer encoding %v and declared length %d, want the length declared",
				len(body), resp.TransferEncoding, resp.ContentLength)
		}
	})

	t.Run("tile-round-trip", func(t *testing.T) {
		want, err := tiling.ExecuteTile(context.Background(), tileReq())
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Violations) == 0 {
			t.Fatal("reference tile produced no violations; check is vacuous")
		}
		resp := postJSON(t, d.url+"/v1/jobs", server.JobRequest{Kind: server.KindTile, Tile: tileReq()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tile wait=1 submit status = %d, want 200", resp.StatusCode)
		}
		st := status(t, resp)
		if st.State != server.StateDone || st.Kind != server.KindTile || st.Tile == nil {
			t.Fatalf("tile submit body: %+v", st)
		}
		if !strings.HasPrefix(st.Key, "sha256:") {
			t.Fatalf("tile key %q not content-addressed", st.Key)
		}
		if !reflect.DeepEqual(st.Tile.Violations, want.Violations) {
			t.Fatalf("wire tile violations diverge from local execution:\n got %+v\nwant %+v",
				st.Tile.Violations, want.Violations)
		}
		dup := postJSON(t, d.url+"/v1/jobs", server.JobRequest{Kind: server.KindTile, Tile: tileReq()})
		dst := status(t, dup)
		if !dst.Cached || dst.Tile == nil {
			t.Fatalf("duplicate tile not served from cache: %+v", dst)
		}
	})

	t.Run("delta-kind-removed", func(t *testing.T) {
		// The incremental "delta" job kind is gone from the wire: both
		// tiers must say so the same way, whether the client names the
		// kind or still sends the old payload field.
		ghost := "sha256:" + strings.Repeat("0", 64)
		resp := postRaw(t, d.url+"/v1/jobs", strings.NewReader(`{"kind":"delta","technique":"sraf"}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("delta kind status = %d, want 400", resp.StatusCode)
		}
		if body := decode[server.ErrorBody](t, resp); !strings.Contains(body.Error, "unknown job kind") {
			t.Fatalf("delta kind body %q, want unknown job kind", body.Error)
		}
		resp = postRaw(t, d.url+"/v1/jobs", strings.NewReader(
			`{"kind":"tile","delta":{"schema":4,"parent":"`+ghost+`"}}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("delta field status = %d, want 400", resp.StatusCode)
		}
		if body := decode[server.ErrorBody](t, resp); !strings.Contains(body.Error, `unknown field "delta"`) {
			t.Fatalf("delta field body %q, want unknown field rejection", body.Error)
		}
	})

	t.Run("oversize-body", func(t *testing.T) {
		// One byte past the shared 64 MiB request bound: both tiers
		// answer 413 with an ErrorBody instead of buffering it.
		// Leading whitespace, so without the bound the request would be
		// perfectly valid.
		body := io.MultiReader(io.LimitReader(spaces{}, 64<<20),
			strings.NewReader(`{"technique":"sraf","seed":1}`))
		resp := postRaw(t, d.url+"/v1/jobs", body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize body status = %d, want 413", resp.StatusCode)
		}
		if eb := decode[server.ErrorBody](t, resp); eb.Error == "" {
			t.Fatal("413 body carries no error message")
		}
	})

	t.Run("validation-errors", func(t *testing.T) {
		resp := postJSON(t, d.url+"/v1/jobs", server.JobRequest{Technique: "no-such"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown technique status = %d, want 400", resp.StatusCode)
		}
		if body := decode[server.ErrorBody](t, resp); body.Error == "" {
			t.Fatal("400 body carries no error message")
		}
		resp = postJSON(t, d.url+"/v1/jobs", server.JobRequest{Kind: "banana", Technique: "sraf"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown kind status = %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
		resp = postJSON(t, d.url+"/v1/jobs", server.JobRequest{Kind: server.KindTile})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tile job without payload status = %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	})

	// settles posts a well-formed unit and wants it done under the key
	// a client would claim for it: what every rejection check ends on, to
	// show the node behind the 400s is still serving.
	settles := func(t *testing.T, unit *tiling.TileRequest) {
		t.Helper()
		good := server.JobRequest{Kind: server.KindTile, Tile: unit}
		resp := postJSON(t, d.url+"/v1/jobs", good)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("well-formed unit status = %d, want 200", resp.StatusCode)
		}
		st := status(t, resp)
		if want, err := server.KeyForRequest(good); err != nil || st.Key != want || st.State != server.StateDone {
			t.Fatalf("well-formed unit: state %q key %q; KeyForRequest = %q, %v", st.State, st.Key, want, err)
		}
	}
	// rejects posts a raw body and wants a 400 whose error mentions
	// every one of want.
	rejects := func(t *testing.T, name, body string, want ...string) {
		t.Helper()
		resp := postRaw(t, d.url+"/v1/jobs", strings.NewReader(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		eb := decode[server.ErrorBody](t, resp)
		for _, w := range want {
			if !strings.Contains(eb.Error, w) {
				t.Errorf("%s: body %q, want it to mention %q", name, eb.Error, w)
			}
		}
	}
	// tileBody is a raw stage-A tile job labelled with schema, around
	// extra, which supplies the fields under test.
	tileBody := func(schema int, extra string) string {
		return `{"kind":"tile","tile":{"schema":` + strconv.Itoa(schema) +
			`,"stage":"tile","drc":true,"coreW":8000,"coreH":8000,"pad":2000,` + extra + `}}`
	}

	t.Run("eval-fields-removed", func(t *testing.T) {
		// A technique evaluation is a technique and a seed, on N45 and
		// the default block under the server's deadline. The fields that
		// once named a node, a block shape and a deadline are unknown
		// fields now, on either kind of job: a client still sending one
		// is told so rather than served something it did not ask for.
		// So is the ML gating config a tile unit once carried: every
		// window is scanned exactly, and no config is left to key by.
		var tileJob []byte
		for kind, job := range map[string]server.JobRequest{
			server.KindEval: {Technique: "sraf", Seed: 1},
			server.KindTile: {Kind: server.KindTile, Tile: tileReq()},
		} {
			b, err := server.EncodeJobRequest(job)
			if err != nil {
				t.Fatal(err)
			}
			if kind == server.KindTile {
				tileJob = b
			}
			for field, value := range map[string]string{
				"tech":      `"N45"`,
				"block":     `{"rows":2,"rowWidth":8000,"nets":4,"maxFan":3}`,
				"timeoutMs": `1000`,
			} {
				rejects(t, field+" on "+kind, `{"`+field+`":`+value+`,`+string(b[1:]), `unknown field "`+field+`"`)
			}
		}
		unit := `"tile":{`
		if !bytes.Contains(tileJob, []byte(unit)) {
			t.Fatalf("tile job %s has no %s", tileJob, unit)
		}
		rejects(t, "surrogate on a tile unit",
			strings.Replace(string(tileJob), unit, unit+`"surrogate":{"seed":11,"minSample":8},`, 1),
			`unknown field "surrogate"`)
		settles(t, tileReq())
	})

	t.Run("schema-2-rejected", func(t *testing.T) {
		// There is one wire form. The schema-2 spelling of a unit — shapes
		// as an array of objects — is refused by both tiers and told why;
		// no fallback decoder quietly accepts it.
		rejects(t, "schema-2 unit", tileBody(2,
			`"shapes":[{"Layer":4,"R":{"X0":1500,"Y0":1500,"X1":1800,"Y1":1570},"Net":0},`+
				`{"Layer":4,"R":{"X0":1850,"Y0":1500,"X1":2150,"Y1":1570},"Net":0}]`),
			"schema 2", "speaks 4")
		rejects(t, "schema-2 arrays under this schema's label", tileBody(tiling.TileSchema,
			`"shapes":[{"Layer":4,"R":{"X0":1500,"Y0":1500,"X1":1800,"Y1":1570},"Net":0}]`), "shapes")
		settles(t, tileReq())
	})

	t.Run("schema-3-rejected", func(t *testing.T) {
		// Schema 3 spelled a unit exactly as this build does but promised
		// no order, and the key is now a hash of the order it arrives in.
		// A schema-3 peer is refused by schema, sorted or not, as a
		// schema-2 one is.
		b, err := server.EncodeJobRequest(server.JobRequest{Kind: server.KindTile, Tile: tileReq()})
		if err != nil {
			t.Fatal(err)
		}
		old := strings.Replace(string(b), `"schema":4`, `"schema":3`, 1)
		if old == string(b) {
			t.Fatal("fixture did not carry the schema where expected")
		}
		rejects(t, "schema-3 unit", old, "schema 3", "speaks 4")
		settles(t, tileReq())
	})

	t.Run("tile-unknown-field", func(t *testing.T) {
		// Strictness has to reach inside "tile": the envelope-level case
		// is delta-kind-removed; this one holds because the node reads the
		// tile's bytes with tiling.ReadRequest, whose decoder is strict
		// too.
		rejects(t, "unknown field inside tile", tileBody(tiling.TileSchema, `"bogus":1`), `unknown field "bogus"`)
		settles(t, tileReq())
	})

	t.Run("hostile-packed", func(t *testing.T) {
		// Packed columns are lengths and offsets from outside: a count
		// no payload could hold, a varint cut short, bytes left over and
		// bad base64 are each a 400 naming the column, never an
		// allocation sized by the count or a panic in the node.
		col := func(b ...byte) string { return base64.StdEncoding.EncodeToString(b) }
		huge := append(binary.AppendUvarint(nil, 1<<60), make([]byte, 10)...)
		body := func(extra string) string { return tileBody(tiling.TileSchema, extra) }
		rejects(t, "count overflow", body(`"shapes":"`+col(huge...)+`"`), "shapes", "declares")
		rejects(t, "window count overflow", body(`"windows":"`+col(huge...)+`"`), "windows", "declares")
		rejects(t, "truncated varint", body(`"shapes":"`+col(1, 4, 0x80, 0x80, 0x80, 0x80, 0x80)+`"`), "shapes", "truncated")
		rejects(t, "trailing bytes", body(`"shapes":"`+col(1, 4, 0, 0, 2, 2, 0, 9)+`"`), "shapes", "trailing")
		rejects(t, "layer past a byte", body(`"shapes":"`+col(1, 0xac, 0x02, 0, 0, 2, 2, 0)+`"`), "shapes", "layer 300")
		rejects(t, "odd base64", body(`"shapes":"AAA"`), "shapes", "base64")

		// A column that decodes but is not in canonical order is a 400
		// naming the record: the node's key is a hash of the unit as it
		// stands, so an order it did not verify would be an address no
		// honest client computes.
		posted := func(unit *tiling.TileRequest) string {
			b, err := server.EncodeJobRequest(server.JobRequest{Kind: server.KindTile, Tile: unit})
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		shapes := tileReq()
		shapes.Shapes = append(shapes.Shapes, shapes.Shapes[0])
		rejects(t, "shape column out of order", posted(shapes), "shape 2 sorts before shape 1")
		rects := windowReq()
		rects.Rects[0], rects.Rects[1] = rects.Rects[1], rects.Rects[0]
		rejects(t, "rect column out of order", posted(rects), "rect 1 sorts before rect 0")
		settles(t, tileReq())
		settles(t, windowReq())
	})

	t.Run("claimed-key-wrong", func(t *testing.T) {
		// A claim is placement, never identity. Unit U sent under V's key
		// is computed as U and filed as U; V, sent honestly afterwards, is
		// a miss with V's own result. Were the node to trust the claim, U's
		// status would carry V's key and V would be answered from the
		// cache with U's violations.
		moved := func(dx int64) *tiling.TileRequest {
			u := tileReq()
			u.Shapes[1].R = u.Shapes[1].R.Translate(geom.Pt(dx, 0))
			return u
		}
		u, v := moved(7), moved(400)
		jobU, jobV := server.JobRequest{Kind: server.KindTile, Tile: u}, server.JobRequest{Kind: server.KindTile, Tile: v}
		keyU, err := server.KeyForRequest(jobU)
		if err != nil {
			t.Fatal(err)
		}
		keyV, err := server.KeyForRequest(jobV)
		if err != nil || keyV == keyU {
			t.Fatalf("fixture: keys %q and %q (%v)", keyU, keyV, err)
		}
		wantU, _ := tiling.ExecuteTile(context.Background(), u)
		wantV, _ := tiling.ExecuteTile(context.Background(), v)
		// Violations are what the two differ in (and what the wire hands
		// back unchanged; an empty density column comes back nil).
		same := func(got *tiling.TileResult, want *tiling.TileResult) bool {
			return got != nil && reflect.DeepEqual(got.Violations, want.Violations)
		}
		if len(wantU.Violations) == 0 || same(wantU, wantV) {
			t.Fatal("fixture: U and V compute the same result; the check is vacuous")
		}

		resp := postClaimed(t, d.url+"/v1/jobs", jobU, keyV, false)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("U under V's key: status = %d, want 200", resp.StatusCode)
		}
		st := status(t, resp)
		if st.Key != keyU || st.Cached || !same(st.Tile, wantU) {
			t.Fatalf("U under V's key: key %q cached %v tile %+v; want U's key %q and U's own result %+v", st.Key, st.Cached, st.Tile, keyU, wantU)
		}
		resp = postClaimed(t, d.url+"/v1/jobs", jobV, keyV, false)
		st = status(t, resp)
		if st.Key != keyV || st.Cached || st.Deduped || !same(st.Tile, wantV) {
			t.Fatalf("honest V after the lie: key %q cached %v tile %+v; want a miss under %q with V's own result %+v", st.Key, st.Cached, st.Tile, keyV, wantV)
		}
		// And U is where U belongs.
		st = status(t, postClaimed(t, d.url+"/v1/jobs", jobU, keyU, false))
		if !st.Cached || st.Key != keyU || !same(st.Tile, wantU) {
			t.Fatalf("honest U afterwards: %+v, want a hit under its own key", st)
		}
	})

	t.Run("claimed-key-hostile", func(t *testing.T) {
		// Whatever sits in the claim header — nothing, an empty value, ten
		// kilobytes, the right shape with the wrong alphabet, bytes that
		// are not ASCII — the unit is routed (by a hash of its bytes),
		// served 200 under the node's own key, and never a 5xx.
		job := server.JobRequest{Kind: server.KindTile, Tile: tileReq()}
		want, err := server.KeyForRequest(job)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name, claim string
			absent      bool
		}{
			{"absent", "", true},
			{"empty", "", false},
			{"ten kilobytes", "sha256:" + strings.Repeat("ab", 5<<10), false},
			{"not hex", "sha256:" + strings.Repeat("zz", 32), false},
			{"not ASCII", "sha256:" + strings.Repeat("é", 32), false},
			{"another scheme", "invalid:sraf", false},
		} {
			resp := postClaimed(t, d.url+"/v1/jobs", job, tc.claim, tc.absent)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s claim: status = %d, want 200", tc.name, resp.StatusCode)
			}
			if st := status(t, resp); st.State != server.StateDone || st.Key != want || st.Tile == nil {
				t.Errorf("%s claim: state %q key %q, want done under %q", tc.name, st.State, st.Key, want)
			}
		}
	})

	// hostile posts every mutation of the unit fresh builds and wants,
	// from both tiers, a 400 that names the field — never the job run
	// into a recovered panic or an allocation of tens of gigabytes —
	// and then the unmutated unit served under the key a client claims
	// for it.
	type hostileCase struct {
		name, want string
		mut        func(*tiling.TileRequest)
	}
	hostile := func(t *testing.T, fresh func() *tiling.TileRequest, cases []hostileCase) {
		for _, tc := range cases {
			r := fresh()
			tc.mut(r)
			resp := postJSON(t, d.url+"/v1/jobs", server.JobRequest{Kind: server.KindTile, Tile: r})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
			}
			if body := decode[server.ErrorBody](t, resp); !strings.Contains(body.Error, tc.want) {
				t.Errorf("%s: body %q, want it to mention %q", tc.name, body.Error, tc.want)
			}
		}
		settles(t, fresh())
	}

	t.Run("hostile-window", func(t *testing.T) {
		// A window unit's optics and size go straight into kernel and
		// buffer sizes on the node, and its layer indexes the rule table.
		hostile(t, windowReq, []hostileCase{
			{"fewer weights than sigmas", "weights", func(r *tiling.TileRequest) { r.Tech.Optics.Weights = []float64{1} }},
			{"non-positive sigma", "sigma", func(r *tiling.TileRequest) { r.Tech.Optics.Sigmas = []float64{35, 0} }},
			{"sub-angstrom pitch", "pixels", func(r *tiling.TileRequest) { r.Tech.Optics.GridNM = 0.05; r.WinW, r.WinH = 12000, 12000 }},
			{"metre-wide window", "pixels", func(r *tiling.TileRequest) { r.WinW = 1e9 }},
			{"layer past the rule table", "layer", func(r *tiling.TileRequest) { r.Layer = 200 }},
			{"no condition (dose 0)", "dose", func(r *tiling.TileRequest) { r.Cond = litho.Condition{} }},
			{"negative dose", "dose", func(r *tiling.TileRequest) { r.Cond.Dose = -1 }},
		})
	})

	t.Run("hostile-tile", func(t *testing.T) {
		// A tile unit's layers index the node's per-layer tables; its
		// rects and density window size go into sweeps and divisions.
		hostile(t, tileReq, []hostileCase{
			{"shape layer past the rule table", "layer", func(r *tiling.TileRequest) { r.Shapes[0].Layer = 200 }},
			{"inverted shape", "canonical", func(r *tiling.TileRequest) { r.Shapes[1].R = geom.Rect{X0: 2150, Y0: 1500, X1: 1850, Y1: 1570} }},
			{"inverted density window", "canonical", func(r *tiling.TileRequest) { r.Windows = []geom.Rect{{X0: 3000, Y0: 0, X1: 0, Y1: 3000}} }},
			{"density layer past the rule table", "layer", func(r *tiling.TileRequest) {
				r.Density, r.DensityWindow, r.DensityLayers = true, 3000, []tech.Layer{200}
			}},
			{"density without a window size", "density window", func(r *tiling.TileRequest) { r.Density = true }},
			// Magnitudes that wrap the node's own arithmetic: this pad
			// inverted the padded window and settled 200 with the 50 nm
			// gap above reported clean.
			{"pad that wraps the padded window", "pad", func(r *tiling.TileRequest) { r.Pad = math.MaxInt64 }},
			{"shape coordinate past the bound", "shape 1", func(r *tiling.TileRequest) { r.Shapes[1].R.X1 = 1 << 41 }},
		})
	})

	t.Run("hang-up", func(t *testing.T) {
		// A submitter that hangs up mid-evaluation leaves the evaluation
		// running: the identical resubmission joins it, is answered done
		// and deduped, and the job is evaluated once.
		before := d.stats()
		ctx, cancel := context.WithCancel(context.Background())
		gone := submit(ctx, d.url, server.JobRequest{Technique: "sraf", Seed: heldSeed})
		waitFor(t, "the held job in flight", func() bool { return d.stats().InFlight == 1 })
		cancel()
		if a := <-gone; !errors.Is(a.err, context.Canceled) {
			t.Fatalf("hung-up submission ended with %+v, want context.Canceled", a)
		}
		again := submit(context.Background(), d.url, server.JobRequest{Technique: "sraf", Seed: heldSeed})
		waitFor(t, "the resubmission to join the running evaluation", func() bool { return d.stats().Deduped > before.Deduped })
		d.release()
		a := <-again
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("resubmission: status %d, err %v", a.code, a.err)
		}
		st, err := server.DecodeJobStatus(a.body)
		if err != nil || st.State != server.StateDone || !st.Deduped {
			t.Fatalf("resubmission answered %s (%v), want done and deduped", a.body, err)
		}
		if after := d.stats(); after.Admitted-before.Admitted != 1 || after.Completed-before.Completed != 2 {
			t.Fatalf("admitted %d and completed %d jobs, want 1 evaluation settling both submissions",
				after.Admitted-before.Admitted, after.Completed-before.Completed)
		}
	})

	// Last: plug the worker and the queue, then verify the shed shape.
	// Both deployments must answer 429 with a Retry-After header that
	// agrees with the JSON hint: header == max(1s, floor(ms/1000)). The
	// plug jobs are answered only when cleanup opens the gate.
	t.Run("overload-shape", func(t *testing.T) {
		submit(context.Background(), d.url, server.JobRequest{Technique: "sraf", Seed: blockSeed})
		waitFor(t, "plug job in flight", func() bool { return d.stats().InFlight == 1 })
		submit(context.Background(), d.url, server.JobRequest{Technique: "sraf", Seed: blockSeed + 1})
		waitFor(t, "filler job queued", func() bool { return d.stats().QueueDepth == 1 })

		resp := postJSON(t, d.url+"/v1/jobs", server.JobRequest{Technique: "sraf", Seed: 2})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("full-queue submit status = %d, want 429", resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		secs, err := strconv.ParseInt(ra, 10, 64)
		if err != nil || secs < 1 {
			t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
		}
		body := decode[server.ErrorBody](t, resp)
		if body.Error == "" {
			t.Fatal("429 body carries no error message")
		}
		if body.RetryAfterMS < 0 {
			t.Fatalf("429 body hint = %dms, want >= 0", body.RetryAfterMS)
		}
		want := body.RetryAfterMS / 1000
		if want < 1 {
			want = 1
		}
		if secs != want {
			t.Fatalf("Retry-After header %ds disagrees with JSON hint %dms (want %ds)",
				secs, body.RetryAfterMS, want)
		}
	})
}
