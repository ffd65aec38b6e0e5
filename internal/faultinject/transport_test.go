package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

func faultTestServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 64)) //nolint:errcheck // test body
	}))
	t.Cleanup(ts.Close)
	return ts, strings.TrimPrefix(ts.URL, "http://")
}

func TestTransportRefuse(t *testing.T) {
	ts, host := faultTestServer(t)
	tr := NewTransport(nil).PlanHost(host, TransportFault{Kind: Refuse, Times: 2})
	c := &http.Client{Transport: tr}

	for i := 0; i < 2; i++ {
		_, err := c.Get(ts.URL)
		if err == nil || !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("request %d: err = %v, want ECONNREFUSED", i, err)
		}
	}
	// Plan exhausted: traffic flows again.
	resp, err := c.Get(ts.URL)
	if err != nil {
		t.Fatalf("post-plan request: %v", err)
	}
	resp.Body.Close()
	if got := tr.Fired(host); got != 2 {
		t.Fatalf("fired = %d, want 2", got)
	}
}

func TestTransportHangHonorsContext(t *testing.T) {
	ts, host := faultTestServer(t)
	tr := NewTransport(nil).PlanHost(host, TransportFault{Kind: Hang})
	c := &http.Client{Transport: tr}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	_, err := c.Do(req)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("hang returned before the context deadline")
	}
}

func TestTransportResetMidBody(t *testing.T) {
	ts, host := faultTestServer(t)
	tr := NewTransport(nil).PlanHost(host, TransportFault{Kind: Reset, AfterBytes: 10})
	c := &http.Client{Transport: tr}

	resp, err := c.Get(ts.URL)
	if err != nil {
		t.Fatalf("reset fault failed the request itself: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read err = %v (got %d bytes), want ECONNRESET", err, len(body))
	}
	if len(body) != 10 {
		t.Fatalf("delivered %d bytes before reset, want 10", len(body))
	}
}

func TestTransportSlowStart(t *testing.T) {
	ts, host := faultTestServer(t)
	tr := NewTransport(nil).PlanHost(host, TransportFault{Kind: Slow, Delay: 40 * time.Millisecond})
	c := &http.Client{Transport: tr}

	start := time.Now()
	resp, err := c.Get(ts.URL)
	if err != nil {
		t.Fatalf("slow fault errored: %v", err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("request took %v, want ≥40ms added latency", d)
	}
}

// TestTransportPlanOrderAndIsolation: faults fire in plan order and
// only against the planned host.
func TestTransportPlanOrderAndIsolation(t *testing.T) {
	ts, host := faultTestServer(t)
	other, _ := faultTestServer(t)
	tr := NewTransport(nil).
		PlanHost(host, TransportFault{Kind: Refuse}).
		PlanHost(host, TransportFault{Kind: Slow, Delay: time.Millisecond})
	c := &http.Client{Transport: tr}

	// Unplanned host is untouched even while a plan is pending.
	resp, err := c.Get(other.URL)
	if err != nil {
		t.Fatalf("unplanned host: %v", err)
	}
	resp.Body.Close()

	if _, err := c.Get(ts.URL); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("first planned fault = %v, want refuse", err)
	}
	resp, err = c.Get(ts.URL)
	if err != nil {
		t.Fatalf("second planned fault (slow) errored: %v", err)
	}
	resp.Body.Close()
	if n := len(tr.plans[host]); n != 0 {
		t.Fatalf("remaining = %d, want 0", n)
	}
}
