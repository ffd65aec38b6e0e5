package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultinject"
	"repro/internal/server"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// node is one real dfmd backend on a real listener, with an abrupt
// kill: the listener and every live connection drop at once, which is
// what a crashed process looks like from the router.
type node struct {
	srv *server.Server
	hs  *http.Server
	url string
}

func startNode(t *testing.T) *node {
	t.Helper()
	s := server.New(server.Config{Workers: 2, Queue: 32, MaxWait: time.Hour})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed by kill/cleanup
	n := &node{srv: s, hs: hs, url: "http://" + ln.Addr().String()}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		n.srv.Shutdown(ctx)
		n.hs.Close()
	})
	return n
}

func (n *node) kill() {
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
}

func (n *node) host() string { return strings.TrimPrefix(n.url, "http://") }

func quiet(string, ...any) {}

// front serves r's HTTP API and returns a client aimed at it. The
// router has no other way in: every routing test submits the way a
// client does, claim header and all, and reads which backend served a
// job off the ID the answer carries.
func front(t *testing.T, r *Router) *client.Client {
	t.Helper()
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL, ts.Client())
}

// servedBy is the backend a routed job's ID names.
func servedBy(st server.JobStatus) string {
	name, _, _ := strings.Cut(st.ID, ".")
	return name
}

// deadURL is a guaranteed connection-refused target: a listener opened
// and immediately closed.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return "http://" + ln.Addr().String()
}

func urls(nodes []*node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.url
	}
	return out
}

// seedsOwnedBy returns `count` workload seeds whose affinity primary
// is the named backend, derived from the same placement the router
// computes and the same key the client will claim — fully
// deterministic.
func seedsOwnedBy(t *testing.T, primary string, count, nodes int) []int64 {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	f := fleet(names...)
	var out []int64
	for s := int64(1); len(out) < count && s < 100000; s++ {
		key, err := server.KeyForRequest(server.JobRequest{Technique: "sraf", Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		if head(key, f) == primary {
			out = append(out, s)
		}
	}
	if len(out) < count {
		t.Fatalf("found only %d/%d seeds owned by %s", len(out), count, primary)
	}
	return out
}

// TestAffinityPinsDuplicateWorkToOneNode: repeats of one request all
// land on the same backend and are answered from its cache — the
// global-cache-without-a-shared-store property.
func TestAffinityPinsDuplicateWorkToOneNode(t *testing.T) {
	nodes := []*node{startNode(t), startNode(t), startNode(t)}
	r, err := New(Config{Backends: urls(nodes),
		CheckInterval: time.Hour, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())

	c := front(t, r)
	req := server.JobRequest{Technique: "sraf", Seed: 7}
	ctx := context.Background()
	first := ""
	for i := 0; i < 8; i++ {
		st, err := c.Eval(ctx, req)
		if err != nil || st.State != server.StateDone {
			t.Fatalf("eval %d: %v %+v", i, err, st)
		}
		if first == "" {
			first = servedBy(st)
		} else if b := servedBy(st); b != first {
			t.Fatalf("eval %d routed to %s, want sticky %s", i, b, first)
		}
		if i > 0 && !st.Cached {
			t.Fatalf("eval %d not served from the sticky node's cache: %+v", i, st)
		}
	}
	for _, b := range r.backends {
		if b.Name != first && b.status().Picks != 0 {
			t.Fatalf("backend %s saw %d picks for a single-key stream", b.Name, b.status().Picks)
		}
	}
}

// TestInflightFailoverDeterministic is the deterministic mid-flight
// failure: every request's primary is black-holed at the transport
// (faultinject.Hang on /v1/jobs only, so health probes stay clean),
// the attempt times out, and the job must complete on a replica.
func TestInflightFailoverDeterministic(t *testing.T) {
	nodes := []*node{startNode(t), startNode(t), startNode(t)}
	seeds := seedsOwnedBy(t, "n0", 4, 3)

	tr := faultinject.NewTransport(nil)
	tr.PlanHost(nodes[0].host(), faultinject.TransportFault{
		Kind: faultinject.Hang, Path: "/v1/jobs", Times: len(seeds),
	})
	// AttemptTimeout must beat the caller's patience but clear a real
	// evaluation, which runs ~150ms under -race.
	r, err := New(Config{Backends: urls(nodes),
		CheckInterval: time.Hour, AttemptTimeout: time.Second,
		RetryBase: time.Millisecond, MaxAttempts: 3, Seed: 42,
		Transport: tr, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	c := front(t, r)

	var wg sync.WaitGroup
	errs := make([]error, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			st, err := c.Eval(ctx, server.JobRequest{Technique: "sraf", Seed: seed})
			if err == nil && st.State != server.StateDone {
				err = fmt.Errorf("settled as %+v", st)
			}
			if err == nil && servedBy(st) == "n0" {
				err = fmt.Errorf("job completed on the black-holed primary")
			}
			errs[i] = err
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d did not complete on a replica: %v", i, err)
		}
	}
	st := r.Stats()
	if st.OK != int64(len(seeds)) || st.Failed != 0 {
		t.Fatalf("router ok/failed = %d/%d, want %d/0", st.OK, st.Failed, len(seeds))
	}
	if st.Failovers != int64(len(seeds)) {
		t.Fatalf("failovers = %d, want %d (one per black-holed primary attempt)", st.Failovers, len(seeds))
	}
	if fired := tr.Fired(nodes[0].host()); fired != len(seeds) {
		t.Fatalf("faults fired = %d, want %d", fired, len(seeds))
	}
}

// TestBlackHoledJobPathStaysEvicted: n0 answers every probe, but its
// job path black-holes every request. FailAfter faulted requests evict
// it however clean its probes are, and after that a live job reaches it
// only as the one request of a trial its probes earned — never a job per
// cooldown on a node that has proven nothing.
func TestBlackHoledJobPathStaysEvicted(t *testing.T) {
	nodes := []*node{startNode(t), startNode(t), startNode(t)}
	const failAfter = 2
	seeds := seedsOwnedBy(t, "n0", 4, 3)

	tr := faultinject.NewTransport(nil)
	tr.PlanHost(nodes[0].host(), faultinject.TransportFault{
		Kind: faultinject.Hang, Path: "/v1/jobs", Times: 1000,
	})
	// AttemptTimeout clears a real evaluation on a replica (~150ms
	// under -race); probes run far faster than jobs are submitted.
	r, err := New(Config{Backends: urls(nodes),
		CheckInterval: 10 * time.Millisecond, FailAfter: failAfter, RiseAfter: 2,
		AttemptTimeout: time.Second, RetryBase: time.Millisecond, MaxAttempts: 3, Seed: 3,
		Transport: tr, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	c := front(t, r)
	n0 := r.backends[0]

	for i, seed := range seeds {
		if i >= failAfter {
			// Let the probes earn n0 a trial, so this job is its one
			// request.
			waitFor(t, "n0 on trial", func() bool { return n0.status().Up })
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, err := c.Eval(ctx, server.JobRequest{Technique: "sraf", Seed: seed})
		cancel()
		if err != nil || st.State != server.StateDone || servedBy(st) == "n0" {
			t.Fatalf("job %d: %v, %+v; want done on a replica", i, err, st)
		}
		if ev := n0.status().Evictions; i+1 < failAfter && ev != 0 || i+1 == failAfter && ev != 1 {
			t.Fatalf("after %d faulted jobs n0 has %d evictions, FailAfter is %d", i+1, ev, failAfter)
		}
	}
	if st := r.Stats(); st.OK != int64(len(seeds)) || st.Failed != 0 {
		t.Fatalf("router ok/failed = %d/%d, want %d/0", st.OK, st.Failed, len(seeds))
	}
	ns := n0.status()
	t.Logf("n0: job path reached %d times, %d evictions, %d reinstatements", tr.Fired(nodes[0].host()), ns.Evictions, ns.Reinstates)
	if fired := tr.Fired(nodes[0].host()); fired > failAfter+int(ns.Reinstates) {
		t.Fatalf("n0's job path reached %d times, want at most FailAfter %d + %d reinstatements", fired, failAfter, ns.Reinstates)
	}
	if want := int64(len(seeds) - failAfter); ns.Reinstates < want {
		t.Fatalf("n0 reinstated %d times, want the %d trials the later jobs waited for", ns.Reinstates, want)
	}
}

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestAttemptTimeoutDefaultsToOneMinute: AttemptTimeout 0 is the 1m
// default, not "no limit" — every attempt reaches its backend with a
// deadline, even when the client's request has none.
func TestAttemptTimeoutDefaultsToOneMinute(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, http.StatusOK, server.JobStatus{ID: "n0.j-1", State: server.StateDone})
	}))
	defer stub.Close()
	var left atomic.Int64
	r, err := New(Config{Backends: []string{stub.URL}, CheckInterval: time.Hour, Logf: quiet,
		Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if dl, ok := req.Context().Deadline(); ok && req.URL.Path == "/v1/jobs" {
				left.Store(int64(time.Until(dl)))
			}
			return http.DefaultTransport.RoundTrip(req)
		})})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	if _, err := front(t, r).Eval(context.Background(), server.JobRequest{Technique: "sraf", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(left.Load()); d <= 50*time.Second || d > time.Minute {
		t.Fatalf("an attempt reached the backend with %v left, want the 1m default", d)
	}
}

// TestInflightFailoverOnRealKill kills a live backend (listener and
// connections dropped) while requests whose affinity primary it is
// are in flight; every one must complete on a replica with zero
// failures.
func TestInflightFailoverOnRealKill(t *testing.T) {
	nodes := []*node{startNode(t), startNode(t), startNode(t)}
	seeds := seedsOwnedBy(t, "n0", 6, 3)

	r, err := New(Config{Backends: urls(nodes),
		CheckInterval: 20 * time.Millisecond, FailAfter: 2, RiseAfter: 2,
		RetryBase: time.Millisecond, MaxAttempts: 4, Seed: 11, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	c := front(t, r)

	var wg sync.WaitGroup
	errs := make([]error, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			st, err := c.Eval(ctx, server.JobRequest{Technique: "sraf", Seed: seed})
			if err == nil && st.State != server.StateDone {
				err = fmt.Errorf("settled as %+v", st)
			}
			errs[i] = err
		}(i, s)
	}
	// Kill the primary while the first attempts are on the wire
	// (evaluations take ~150ms under -race; the kill lands well
	// inside them).
	time.Sleep(2 * time.Millisecond)
	nodes[0].kill()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight request %d lost to the kill: %v", i, err)
		}
	}
	st := r.Stats()
	if st.Failed != 0 || st.OK != int64(len(seeds)) {
		t.Fatalf("ok/failed = %d/%d, want %d/0", st.OK, st.Failed, len(seeds))
	}
	waitFor(t, "dead backend eviction", func() bool { return !r.backends[0].health.admitting() })
}

// TestHealthEvictionAndReinstatement drives a backend through
// fail → threshold eviction → recovery → probe-based reinstatement,
// against a stub whose health flips on demand.
func TestHealthEvictionAndReinstatement(t *testing.T) {
	var sick atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
	}))
	defer stub.Close()

	r, err := New(Config{Backends: []string{stub.URL},
		CheckInterval: 10 * time.Millisecond, CheckTimeout: 100 * time.Millisecond,
		FailAfter: 3, RiseAfter: 2, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	b := r.backends[0]

	waitFor(t, "initial healthy state", func() bool { return b.health.admitting() })
	sick.Store(true)
	waitFor(t, "threshold eviction", func() bool { return !b.health.admitting() })
	if ev := b.status().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	sick.Store(false)
	waitFor(t, "probe-based reinstatement", func() bool { return b.health.admitting() })
	if ri := b.status().Reinstates; ri != 1 {
		t.Fatalf("reinstates = %d, want 1", ri)
	}
}

// TestDrainingBackendEvictedImmediately: a node that reports draining
// is pulled from rotation on the very next probe — no failure
// threshold, because drain is a deliberate signal.
func TestDrainingBackendEvictedImmediately(t *testing.T) {
	n := startNode(t)
	r, err := New(Config{Backends: []string{n.url},
		CheckInterval: 10 * time.Millisecond, FailAfter: 50, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	b := r.backends[0]
	waitFor(t, "healthy", func() bool { return b.health.admitting() })

	if err := n.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// FailAfter is 50: only the immediate drain eviction can fire
	// this fast.
	waitFor(t, "drain eviction", func() bool { return !b.health.admitting() })
}

// TestRetryBudgetBoundsAmplification: with every backend dead, the
// router stops retrying once the budget empties — each request costs
// one attempt, not MaxAttempts.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	r, err := New(Config{Backends: []string{deadURL(t), deadURL(t)},
		CheckInterval: time.Hour, FailAfter: 1 << 30, // nothing evicts: the retry budget is under test
		MaxAttempts: 3, RetryBase: time.Millisecond, RetryBudget: 8, Seed: 5, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	c := front(t, r)

	const reqs = 20
	ctx := context.Background()
	for i := 0; i < reqs; i++ {
		if _, err := c.Eval(ctx, server.JobRequest{Technique: "sraf", Seed: int64(i)}); err == nil {
			t.Fatalf("request %d succeeded against dead backends", i)
		}
	}
	st := r.Stats()
	if st.Failed != reqs {
		t.Fatalf("failed = %d, want %d", st.Failed, reqs)
	}
	var picks int64
	for _, b := range st.Backends {
		picks += b.Picks
	}
	// Budget 8 (deny below 4 tokens): request 1 burns 3 attempts
	// (8→5), request 2 burns 2 (5→3.x), every later request gets
	// exactly 1. Far below the unbudgeted 3×20.
	if picks >= reqs*2 {
		t.Fatalf("total attempts = %d for %d requests: retry budget did not bound amplification", picks, reqs)
	}
	if st.BudgetDenied == 0 {
		t.Fatal("budget never denied a retry against a fully dead cluster")
	}
}

// TestRouterHTTPRewriteAndProxy covers the wire: job IDs gain the
// backend prefix on submit and resolve through the proxy on poll.
func TestRouterHTTPRewriteAndProxy(t *testing.T) {
	nodes := []*node{startNode(t), startNode(t)}
	r, err := New(Config{Backends: urls(nodes), CheckInterval: time.Hour, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	body, _ := json.Marshal(server.JobRequest{Technique: "sraf", Seed: 3})
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(st.ID, "n0.") && !strings.HasPrefix(st.ID, "n1.") {
		t.Fatalf("submit returned unprefixed job id %q", st.ID)
	}

	waitFor(t, "proxied job to settle", func() bool {
		resp, err := http.Get(front.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var ps server.JobStatus
		if json.NewDecoder(resp.Body).Decode(&ps) != nil {
			return false
		}
		return ps.State == server.StateDone && ps.ID == st.ID
	})

	if resp, _ := http.Get(front.URL + "/v1/jobs/bogus-no-prefix"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unprefixed id status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(front.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mb struct {
		Router Stats `json:"router"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	if mb.Router.Requests < 1 || len(mb.Router.Backends) != 2 {
		t.Fatalf("metrics body unexpected: %+v", mb.Router)
	}
}

// TestPollRejectsIDsNoNodeMints: the node-local half of a job ID is
// spliced into the URL a backend is asked, so an ID that is not
// <backend>.j-<digits> is the router's own 404 and never reaches a
// backend — spliced unchecked, the first two reach the node's /metrics
// and /healthz, and the poll route reaches any GET path on any backend.
func TestPollRejectsIDsNoNodeMints(t *testing.T) {
	var reached atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/healthz" {
			reached.Add(1)
			fmt.Fprint(w, "{}")
		}
	}))
	defer stub.Close()
	r, err := New(Config{Backends: []string{stub.URL}, CheckInterval: time.Hour, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	for _, id := range []string{
		"n0.x%2F..%2F..%2F..%2Fmetrics",
		"n0.healthz%3Fdeep=1",
		"n0.j-1%3Fwait=1",
		"n0.j-1%23frag",
		"n0.j-1%2F..",
		"n0...",
		"n0.j-",
		"n0.j--1",
		"n0.j-" + strings.Repeat("1", 20),
		"n0.j-" + strings.Repeat("1", 10<<10),
		"n9.j-1",
		"j-1",
	} {
		resp, err := http.Get(front.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%.40s = %d, want 404", id, resp.StatusCode)
		}
		if n := reached.Swap(0); n != 0 {
			t.Errorf("GET /v1/jobs/%.40s reached the backend (%d requests)", id, n)
		}
	}
	resp, err := http.Get(front.URL + "/v1/jobs/n0.j-000007")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reached.Load() != 1 {
		t.Errorf("a minted id answered %d after %d backend requests, want 200 after 1", resp.StatusCode, reached.Load())
	}
}

// TestRouterDrainMirrorsDfmd: draining answers 503 to new
// submissions while requests already being routed complete.
func TestRouterDrainMirrorsDfmd(t *testing.T) {
	n := startNode(t)
	r, err := New(Config{Backends: []string{n.url}, CheckInterval: time.Hour, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	// A request in flight through the router before the drain begins.
	startc := make(chan struct{})
	done := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(server.JobRequest{Technique: "sraf", Seed: 9})
		close(startc)
		resp, err := http.Post(front.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err == nil {
			done <- resp
		} else {
			done <- nil
		}
	}()
	<-startc
	waitFor(t, "request in flight", func() bool { return r.Stats().Requests >= 1 })

	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !r.draining.Load() {
		t.Fatal("router not draining after Shutdown")
	}

	resp := <-done
	if resp == nil {
		t.Fatal("in-flight request was dropped by the drain")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", resp.StatusCode)
	}

	body, _ := json.Marshal(server.JobRequest{Technique: "sraf", Seed: 10})
	post, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on draining router = %d, want 503", post.StatusCode)
	}
}

// TestShutdownRacesSubmissions: submissions racing Shutdown are either
// refused with 503 or routed to completion before Shutdown returns.
// None may join the drain after Shutdown has waited it out — the
// sync.WaitGroup misuse the race detector reports — so once Shutdown
// returns every request the router counted has settled, and nothing is
// counted after. A -race stress test: the interleaving it guards against
// is rare, hence the rounds.
func TestShutdownRacesSubmissions(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, http.StatusOK, server.JobStatus{ID: "j-1", State: server.StateDone})
	}))
	defer stub.Close()
	for round := 0; round < 200; round++ {
		r, err := New(Config{Backends: []string{stub.URL}, CheckInterval: time.Hour, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		h := r.Handler()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"technique":"sraf","seed":1}`)))
					if rec.Code == http.StatusServiceUnavailable {
						return
					}
				}
			}()
		}
		waitFor(t, "submissions under way", func() bool { return r.Stats().OK > 0 })
		if err := r.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		at := r.Stats()
		wg.Wait()
		after := r.Stats()
		if at.Requests != at.OK+at.Failed {
			t.Fatalf("round %d: Shutdown returned with %d requests counted, %d ok + %d failed", round, at.Requests, at.OK, at.Failed)
		}
		if after.Requests != at.Requests {
			t.Fatalf("round %d: %d requests routed after Shutdown returned", round, after.Requests-at.Requests)
		}
	}
}

// TestRouterShutdownLeaksNoGoroutines: health probers and routing
// paths all exit; repeated create/use/shutdown cycles return the
// process to its baseline goroutine count. Runs under the tier-1
// -race gate.
func TestRouterShutdownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		nodes := []*node{startNode(t), startNode(t)}
		r, err := New(Config{Backends: urls(nodes),
			CheckInterval: 5 * time.Millisecond, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		ts := httptest.NewServer(r.Handler())
		c := client.New(ts.URL, ts.Client())
		for i := 0; i < 4; i++ {
			if _, err := c.Eval(ctx, server.JobRequest{Technique: "sraf", Seed: int64(i % 2)}); err != nil {
				t.Fatalf("cycle %d eval %d: %v", cycle, i, err)
			}
		}
		ts.Close()
		if err := r.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := r.Shutdown(ctx); err != nil { // idempotent
			t.Fatal(err)
		}
		for _, n := range nodes {
			n.kill()
		}
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	waitFor(t, "goroutines to return to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+3
	})
}

// TestRouterForwardsVerbatim is the standing check that the router is a
// pipe for jobs: a stub backend receives a body byte-identical to what
// the client sent — bytes no JSON decoder would hand back unchanged, and
// one that is not JSON at all — and the client receives an answer
// byte-identical to what the backend wrote, status and content type
// included, directly and through a failover (the same buffer, sent
// again). The job-ID prefix goes out as a header for the node to apply;
// the stub applies it the way a node does, so the bytes compared carry
// it. Tile accounting comes off the answer's headers, never its body.
func TestRouterForwardsVerbatim(t *testing.T) {
	const answer = "{\"id\" :\t\"%sj-000042\",\n\n  \"state\":\"done\", \"tile\":{\"unknown\":[1,2,3]}  }\r\n"
	type seen struct {
		body, claim, prefix string
	}
	var got []seen
	var mu sync.Mutex
	// failNext submissions answer 500, whichever stub they reach: a
	// fault on the key's primary, wherever placement puts it.
	var failNext atomic.Int32
	stub := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/jobs" {
				return // healthz: 200
			}
			if failNext.Add(-1) >= 0 {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			var body bytes.Buffer
			body.ReadFrom(req.Body) //nolint:errcheck // test stub
			mu.Lock()
			got = append(got, seen{body.String(), req.Header.Get(server.HeaderRouteKey), req.Header.Get(server.HeaderIDPrefix)})
			mu.Unlock()
			w.Header().Set("Content-Type", "application/x-stub")
			w.Header().Set(server.HeaderJobKind, server.KindTile)
			w.Header().Set(server.HeaderJobReused, "1")
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, answer, req.Header.Get(server.HeaderIDPrefix))
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := stub(), stub()

	bodies := []string{
		"  {\"kind\":\"tile\",\n\t\"tile\":{\"schema\":99,\"stage\":\"\\u0074ile\"},\"seed\":1e0,\"bogus\":null}\n\n",
		"this is not JSON \x00\xff at all",
	}
	for _, tc := range []struct {
		name     string
		backends []string
		faults   int32 // attempts per body that answer 500 before one is served
	}{
		{"direct", []string{a.URL}, 0},
		// The key's primary answers 500: a fault, and the request fails
		// over to the next backend in its preference order.
		{"failover", []string{a.URL, b.URL}, 1},
	} {
		r, err := New(Config{Backends: tc.backends, CheckInterval: time.Hour,
			RetryBase: time.Millisecond, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(r.Handler())
		for i, body := range bodies {
			mu.Lock()
			got = nil
			mu.Unlock()
			failNext.Store(tc.faults)
			servedBy := preference(placement("", []byte(body)), r.backends)[tc.faults].Name + "."
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "text/plain", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var back bytes.Buffer
			back.ReadFrom(resp.Body) //nolint:errcheck // compared below
			resp.Body.Close()
			if len(got) != 1 || got[0].body != body {
				t.Errorf("%s body %d: backend saw %q, client sent %q", tc.name, i, got, body)
			}
			if len(got) == 1 && got[0].prefix != servedBy {
				t.Errorf("%s body %d: backend was asked for ID prefix %q, want %q", tc.name, i, got[0].prefix, servedBy)
			}
			if want := fmt.Sprintf(answer, servedBy); back.String() != want {
				t.Errorf("%s body %d: client received %q, backend wrote %q", tc.name, i, back.String(), want)
			}
			if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "application/x-stub" {
				t.Errorf("%s body %d: client saw status %d type %q, backend answered 202 application/x-stub",
					tc.name, i, resp.StatusCode, resp.Header.Get("Content-Type"))
			}
		}
		st := r.Stats()
		if n := int64(len(bodies)); st.OK != n || st.Failed != 0 || st.TileJobs != n || st.TileReused != n {
			t.Errorf("%s: ok/failed %d/%d, tile jobs/reused %d/%d; want %d/0 and %d/%d off the answer's headers",
				tc.name, st.OK, st.Failed, st.TileJobs, st.TileReused, n, n, n)
		}
		if wantFO := int64(tc.faults) * int64(len(bodies)); st.Failovers != wantFO {
			t.Errorf("%s: failovers = %d, want %d", tc.name, st.Failovers, wantFO)
		}
		ts.Close()
		r.Shutdown(context.Background())
	}
}

// The placement key is the client's claim when it looks like a content
// address and the sha256 of the body otherwise — so equal bytes still
// land on one node — and nothing else about the claim is believed.
func TestPlacementBelievesOnlyWellFormedClaims(t *testing.T) {
	body := []byte(`{"technique":"sraf","seed":3}`)
	byBody := placement("", body)
	if !strings.HasPrefix(byBody, "sha256:") || len(byBody) != 71 || byBody == placement("", append(body, ' ')) {
		t.Fatalf("body placement %q is not a digest of the bytes", byBody)
	}
	claim := "sha256:" + strings.Repeat("0123456789abcdef", 4)
	if got := placement(claim, body); got != claim {
		t.Errorf("well-formed claim placed as %q", got)
	}
	for _, bad := range []string{
		"sha256:", "sha256:" + strings.Repeat("g", 64), "md5:" + strings.Repeat("0", 64),
		claim + "0", claim[:70], strings.Repeat("a", 10<<10), "sha256:" + strings.Repeat("é", 32), "invalid:sraf",
	} {
		if got := placement(bad, body); got != byBody {
			t.Errorf("claim %.40q placed as %q, want the body's digest", bad, got)
		}
	}
}

// TestPickFollowsPreferenceOrder: what is left of policy order — pick
// tries backends in the key's preference order, passing over the ones
// already tried and the ones that are down.
func TestPickFollowsPreferenceOrder(t *testing.T) {
	r, err := New(Config{Backends: []string{deadURL(t), deadURL(t), deadURL(t)},
		CheckInterval: time.Hour, FailAfter: 1 << 30, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())

	const key = "sha256:any"
	want := nameList(preference(key, r.backends))
	tried := map[*Backend]bool{}
	for i, name := range want {
		b, _ := r.pick(key, tried)
		if b == nil || b.Name != name {
			t.Fatalf("pick %d = %v, preference order %v", i, b, want)
		}
		tried[b] = true
	}
	if b, _ := r.pick(key, tried); b != nil {
		t.Fatalf("pick after every backend was tried = %s, want none", b.Name)
	}
	r.byName[want[0]].health.probed(client.ErrDraining)
	if b, _ := r.pick(key, nil); b == nil || b.Name != want[1] {
		t.Fatalf("pick with the primary down = %v, want %s", b, want[1])
	}
}
