package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
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

// A submission is answered once its job settles, whatever the query
// string says: 200 with the result, and a duplicate 200 from the cache.
func TestHTTPSubmitPollResult(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	s := New(cfg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	open := sync.OnceFunc(func() { close(gate) })
	defer open()

	answered := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=0", "application/json",
			strings.NewReader(`{"technique":"sraf","seed":5}`))
		if err != nil {
			resp = nil
		}
		answered <- resp
	}()
	waitFor(t, "job in flight", func() bool { return s.Stats().InFlight == 1 })
	select {
	case <-answered:
		t.Fatal("submission answered before its job settled")
	default:
	}
	open()
	resp := <-answered
	if resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("submit answered %v, want 200", resp)
	}
	fin := decode[JobStatus](t, resp)
	if fin.State != StateDone || fin.Result == nil || fin.Result.Verdict != "HIT" || !strings.HasPrefix(fin.Key, "sha256:") {
		t.Fatalf("settled answer: %+v", fin)
	}

	resp2 := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Technique: "sraf", Seed: 5})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d, want 200", resp2.StatusCode)
	}
	if st2 := decode[JobStatus](t, resp2); !st2.Cached || st2.Result == nil || st2.Key != fin.Key {
		t.Fatalf("cached submit body: %+v", st2)
	}
}

func TestHTTPShedsWith429AndRetryAfter(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 1, MaxWait: 0})
	s := New(cfg)
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Plug the worker and the queue, past HTTP: their submissions would
	// be answered only once the gate opens.
	if _, _, err := s.submit(req(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job in flight", func() bool { return s.Stats().InFlight == 1 })
	if _, _, err := s.submit(req(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second job queued", func() bool { return s.Stats().QueueDepth == 1 })

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Technique: "sraf", Seed: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	body := decode[ErrorBody](t, resp)
	if body.Error != "overloaded" {
		t.Fatalf("429 body: %+v", body)
	}
}

func TestHTTPValidationAndNotFound(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 1})
	s := New(cfg)
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Technique: "no-such"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown technique status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	r2, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of a job path = %d, want the mux's 404", r2.StatusCode)
	}
	r2.Body.Close()
}

func TestHTTPHealthzAndMetricsAcrossDrain(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	s := New(cfg)
	close(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", hz.StatusCode)
	}
	hz.Body.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Technique: "sraf", Seed: 9})
	resp.Body.Close()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decode[metricsBody](t, mr)
	if m.Server.Submitted != 1 || m.Server.Completed != 1 {
		t.Fatalf("metrics server stats: %+v", m.Server)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	hz2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hz2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", hz2.StatusCode)
	}
	hz2.Body.Close()
	sub, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"technique":"sraf","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if sub.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status = %d, want 503", sub.StatusCode)
	}
	sub.Body.Close()
}
