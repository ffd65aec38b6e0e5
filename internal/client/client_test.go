package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/server"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// TestClientAgainstRealServer drives the genuine service end to end:
// eval, eval again (cache hit), healthz, metrics.
func TestClientAgainstRealServer(t *testing.T) {
	s := server.New(server.Config{Workers: 2, Queue: 8, MaxWait: time.Hour})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := New(ts.URL, nil)
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	fin, err := c.Eval(ctx, server.JobRequest{Technique: "sraf", Seed: 3})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if fin.State != server.StateDone || fin.Result == nil {
		t.Fatalf("job settled as %+v", fin)
	}

	// Eval on the same content: cache hit, immediate.
	ev, err := c.Eval(ctx, server.JobRequest{Technique: "sraf", Seed: 3})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !ev.Cached || ev.Result == nil {
		t.Fatalf("eval replay not cached: %+v", ev)
	}

	stats, _, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", stats)
	}

	var se *StatusError
	if _, err := c.Eval(ctx, server.JobRequest{Technique: "bogus"}); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("bad technique err = %v, want 400 StatusError", err)
	}
}

// TestClientMapsOverloadAndDraining checks the shed/drain error
// mapping against canned responses.
func TestClientMapsOverloadAndDraining(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded","retryAfterMs":1500}`))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL, nil)

	_, err := c.Eval(context.Background(), server.JobRequest{Technique: "sraf"})
	var ov *Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("429 err = %v, want Overloaded", err)
	}
	if ov.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("retry-after = %v, want 1.5s from body", ov.RetryAfter)
	}
	if err := c.Healthz(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("healthz on draining server err = %v, want ErrDraining", err)
	}
}

// WaitReady asks until the server accepts work, and gives up with an
// error when its context ends first.
func TestWaitReadyPollsUntilServing(t *testing.T) {
	var probes, sick atomic.Int64
	sick.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) <= sick.Load() {
			server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	if err := c.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if n := probes.Load(); n != 3 {
		t.Fatalf("%d probes, want 3: two draining answers, then ready", n)
	}
	sick.Store(1 << 30)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := c.WaitReady(ctx); err == nil {
		t.Fatal("WaitReady on a server that never comes up returned nil")
	}
}

// testUnit is a small valid stage-A unit and the key a node files it
// under.
func testUnit(t *testing.T) (*tiling.TileRequest, string) {
	t.Helper()
	unit := &tiling.TileRequest{
		Schema: tiling.TileSchema, Stage: tiling.StageTile, Tech: *tech.N45(), DRC: true,
		CoreW: 8000, CoreH: 8000, Pad: 2000,
		Shapes: []layout.Shape{{Layer: tech.Metal2, R: geom.R(1500, 1500, 1800, 1570)}},
	}
	key, err := server.KeyForRequest(server.JobRequest{Kind: server.KindTile, Tile: unit})
	if err != nil {
		t.Fatal(err)
	}
	return unit, key
}

// The key a client claims is the key the settled job must carry. A node
// that files the unit under anything else hashes units differently from
// this client, and its answer is refused — loudly, once, with no retry:
// the same bytes would hash the same way again. A unit the client cannot
// key at all never leaves.
func TestEvalTileHoldsTheNodeToItsKey(t *testing.T) {
	unit, key := testUnit(t)
	var calls atomic.Int64
	answer := server.JobStatus{State: server.StateDone, Kind: server.KindTile, Tile: &tiling.TileResult{}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if got := r.Header.Get(server.HeaderRouteKey); got != key {
			t.Errorf("claimed %q beside the unit, want its key %q", got, key)
		}
		server.WriteJobStatus(w, answer)
	}))
	defer ts.Close()
	sub := &TileSubmitter{C: New(ts.URL, ts.Client()), Policy: NewRetryPolicy(4, 1)}

	answer.Key = key
	if _, _, err := sub.EvalTile(context.Background(), unit); err != nil {
		t.Fatalf("honest node: %v", err)
	}
	answer.Key = "sha256:" + strings.Repeat("0", 64)
	calls.Store(0)
	if _, _, err := sub.EvalTile(context.Background(), unit); !errors.Is(err, errKeyMismatch) || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("node that keyed the unit differently: err = %v, want the disagreement named", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("a key mismatch was sent %d times, want 1: it is not retryable", n)
	}
	calls.Store(0)
	if _, _, err := sub.EvalTile(context.Background(), &tiling.TileRequest{}); err == nil || calls.Load() != 0 {
		t.Errorf("a unit with no key: err = %v after %d requests, want it refused before any byte leaves", err, calls.Load())
	}
}

// A tile job that settles failed is the node's fault, not the unit's:
// the submitter sends the unit again and takes the result of the second
// call. A node that dies mid-evaluation answers this way.
func TestTileSubmitterAbsorbsAFailedSettle(t *testing.T) {
	unit, key := testUnit(t)
	want := &tiling.TileResult{Violations: []drc.Violation{{Rule: "metal2.width", Layer: tech.Metal2, Marker: geom.R(1500, 1500, 1800, 1570), Detail: "w"}}}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test server
		st := server.JobStatus{State: server.StateDone, Kind: server.KindTile, Key: key, Tile: want}
		if calls.Add(1) == 1 {
			st = server.JobStatus{State: server.StateFailed, Kind: server.KindTile, Key: key, Error: "worker panicked"}
		}
		server.WriteJobStatus(w, st)
	}))
	defer ts.Close()
	p := NewRetryPolicy(4, 1)
	p.Base, p.Max = time.Millisecond, time.Millisecond
	sub := &TileSubmitter{C: New(ts.URL, ts.Client()), Policy: p}

	got, _, err := sub.EvalTile(context.Background(), unit)
	if err != nil {
		t.Fatalf("EvalTile: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("the unit was sent %d times, want 2: one failed settle, then the result", n)
	}
	if len(got.Violations) != 1 || got.Violations[0] != want.Violations[0] {
		t.Fatalf("result = %v, want %v", got.Violations, want.Violations)
	}
}

// A json.Decoder stops at the end of its value; a chunked body closed
// with its trailing newline and chunk terminator unread takes the
// connection down with it. Every path of Forward that reads a body must
// leave the connection reusable: 50 sequential calls, each answered
// with a body too large to be sent unchunked, open one connection —
// at the parent of PR 19 they opened 50.
func TestClientReusesConnectionAfterLargeBody(t *testing.T) {
	tile := &tiling.TileResult{}
	for i := int64(0); i < 3000; i++ {
		tile.Violations = append(tile.Violations, drc.Violation{
			Rule: "metal2.space", Layer: tech.Metal2, Marker: geom.R(97*i, 31*i, 97*i+50, 31*i+70), Detail: "space 50 < 70",
		})
	}
	long := strings.Repeat("no room at the inn; ", 500)
	unit, unitKey := testUnit(t)
	for _, tc := range []struct {
		name string
		code int
		body any
		call func(ctx context.Context, c *Client) error
	}{
		{"Eval", http.StatusOK, server.JobStatus{State: server.StateDone, Kind: server.KindTile, Tile: tile},
			func(ctx context.Context, c *Client) error {
				st, err := c.Eval(ctx, server.JobRequest{Kind: server.KindTile})
				if err == nil && len(st.Tile.Violations) != 3000 {
					err = fmt.Errorf("decoded %d violations", len(st.Tile.Violations))
				}
				return err
			}},
		{"EvalTile", http.StatusOK, server.JobStatus{State: server.StateDone, Kind: server.KindTile, Key: unitKey, Tile: tile},
			func(ctx context.Context, c *Client) error {
				res, _, err := c.EvalTile(ctx, unit)
				if err == nil && len(res.Violations) != 3000 {
					err = fmt.Errorf("decoded %d violations", len(res.Violations))
				}
				return err
			}},
		{"429", http.StatusTooManyRequests, server.ErrorBody{Error: long, RetryAfterMS: 250},
			func(ctx context.Context, c *Client) error {
				var ov *Overloaded
				if _, err := c.Eval(ctx, server.JobRequest{}); !errors.As(err, &ov) {
					return fmt.Errorf("err = %v, want Overloaded", err)
				}
				return nil
			}},
		{"400", http.StatusBadRequest, server.ErrorBody{Error: long},
			func(ctx context.Context, c *Client) error {
				var se *StatusError
				if _, err := c.Eval(ctx, server.JobRequest{}); !errors.As(err, &se) || se.Msg != long {
					return fmt.Errorf("err = %v, want the 400 StatusError", err)
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opened atomic.Int64
			ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body) //nolint:errcheck // test server
				if st, ok := tc.body.(server.JobStatus); ok {
					server.WriteJobStatus(w, st)
					return
				}
				server.WriteJSON(w, tc.code, tc.body)
			}))
			ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					opened.Add(1)
				}
			}
			ts.Start()
			defer ts.Close()
			tr := &http.Transport{MaxConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			c := New(ts.URL, &http.Client{Transport: tr})
			for i := 0; i < 50; i++ {
				if err := tc.call(context.Background(), c); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if n := opened.Load(); n != 1 {
				t.Fatalf("50 sequential calls opened %d connections, want 1", n)
			}
		})
	}
}

// An answer is read under the bound a submission is: a backend that
// declares or streams more than 64 MiB is an error naming the bound,
// not a buffer that grows for as long as the backend writes — which a
// dfmrouter, relaying every backend answer through Forward, would pay.
func TestForwardBoundsTheAnswer(t *testing.T) {
	const bound = 64 << 20
	for _, tc := range []struct {
		name   string
		answer func(w http.ResponseWriter)
	}{
		{"declared", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(bound+1))
			w.Write([]byte("{}")) //nolint:errcheck // the client hangs up
		}},
		{"streamed", func(w http.ResponseWriter) {
			chunk := bytes.Repeat([]byte{' '}, 64<<10)
			for sent := 0; sent <= bound; sent += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
			w.Write([]byte("{}")) //nolint:errcheck // the client hangs up
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { tc.answer(w) }))
			defer ts.Close()
			rep, err := New(ts.URL, nil).Forward(context.Background(), http.MethodGet, "/metrics", nil, nil)
			if err == nil || !strings.Contains(err.Error(), strconv.Itoa(bound)) {
				t.Fatalf("Forward = %v, %v; want an error naming the %d-byte bound", rep, err, bound)
			}
		})
	}
}
