package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

func TestHTTPSubmitPollResult(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	s := New(cfg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Technique: "sraf", Seed: 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decode[JobStatus](t, resp)
	if st.ID == "" || !strings.HasPrefix(st.Key, "sha256:") {
		t.Fatalf("implausible submit response: %+v", st)
	}

	// Pending: the poll answers 200 with a status that is not settled.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pending := decode[JobStatus](t, rr); rr.StatusCode != http.StatusOK || pending.State == StateDone || pending.Result != nil {
		t.Fatalf("pending poll: status %d body %+v", rr.StatusCode, pending)
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	var fin JobStatus
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		fin = decode[JobStatus](t, resp)
		if fin.State == StateDone || fin.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", fin.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fin.State != StateDone || fin.Result == nil || fin.Result.Verdict != "HIT" {
		t.Fatalf("polled terminal status: %+v", fin)
	}

	// wait=1 on a duplicate: answered inline from the cache with 200.
	resp2 := postJSON(t, ts.URL+"/v1/jobs?wait=1", JobRequest{Technique: "sraf", Seed: 5})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached wait=1 status = %d, want 200", resp2.StatusCode)
	}
	st2 := decode[JobStatus](t, resp2)
	if !st2.Cached || st2.Result == nil {
		t.Fatalf("cached wait=1 body: %+v", st2)
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

	postJSON(t, ts.URL+"/v1/jobs", JobRequest{Technique: "sraf", Seed: 1}).Body.Close()
	waitFor(t, "first job in flight", func() bool { return s.Stats().InFlight == 1 })
	postJSON(t, ts.URL+"/v1/jobs", JobRequest{Technique: "sraf", Seed: 2}).Body.Close()
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
		t.Fatalf("unknown job status = %d, want 404", r2.StatusCode)
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

	resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", JobRequest{Technique: "sraf", Seed: 9})
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

// A wait=1 submit whose wait is cut short (client deadline, proxy
// timeout) must still hand back the job's identity: 202 with the full
// JobStatus, never an anonymous timeout. The job was admitted — a
// client that can't poll it would resubmit and double-pay.
func TestHTTPWaitCutShortReturnsJobStatus(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	s := New(cfg)
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := json.Marshal(JobRequest{Technique: "sraf", Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	// The handler admits the job, then blocks in wait (the task is
	// gated); cancel the request mid-wait.
	waitFor(t, "job admitted", func() bool { return s.Stats().Submitted == 1 })
	cancel()
	<-done

	if rec.Code != http.StatusAccepted {
		t.Fatalf("cut-short wait status = %d, want 202", rec.Code)
	}
	var st JobStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("cut-short wait returned no job ID: %+v", st)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("cut-short wait state = %q, want queued/running", st.State)
	}
	// The ID it returned must be pollable.
	if _, ok := s.Job(st.ID); !ok {
		t.Fatalf("job %s not pollable after cut-short wait", st.ID)
	}
}
