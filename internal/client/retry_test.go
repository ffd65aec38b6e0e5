package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// stubEval builds a server that sheds (or fails) the first `failN`
// /v1/jobs calls with the given status writer, then succeeds.
func stubEval(t *testing.T, failN int, fail func(w http.ResponseWriter)) (*Client, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= failN {
			fail(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(server.JobStatus{ //nolint:errcheck // test stub
			ID: "j-1", State: server.StateDone,
		})
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL, nil), &calls
}

func shed(retryAfterMS int64) func(w http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.ErrorBody{ //nolint:errcheck // test stub
			Error: "queue full", RetryAfterMS: retryAfterMS,
		})
	}
}

func TestEvalWithRetryRecoversFromSheds(t *testing.T) {
	c, calls := stubEval(t, 2, shed(1)) // 1ms hint: fast test
	p := NewRetryPolicy(4, 1)
	p.Base, p.Max = time.Millisecond, 10*time.Millisecond

	st, err := c.EvalWithRetry(context.Background(), server.JobRequest{Technique: "sraf"}, p)
	if err != nil {
		t.Fatalf("EvalWithRetry: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 sheds + success)", got)
	}
}

func TestEvalWithRetryExhaustsAttempts(t *testing.T) {
	c, calls := stubEval(t, 1000, shed(1))
	p := NewRetryPolicy(3, 1)
	p.Base, p.Max = time.Millisecond, 5*time.Millisecond

	_, err := c.EvalWithRetry(context.Background(), server.JobRequest{Technique: "sraf"}, p)
	var ov *Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want Overloaded after exhausting attempts", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want exactly MaxAttempts=3", got)
	}
}

func TestEvalWithRetryNoSleepPastDeadline(t *testing.T) {
	c, calls := stubEval(t, 1000, shed(60_000)) // 60s hint floors every backoff
	p := NewRetryPolicy(5, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.EvalWithRetry(ctx, server.JobRequest{Technique: "sraf"}, p)
	if err == nil {
		t.Fatal("expected error")
	}
	// The 30s+ backoff cannot finish before the 150ms deadline, so the
	// helper must return the shed error immediately instead of
	// sleeping into a guaranteed DeadlineExceeded.
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("EvalWithRetry slept %v toward an unreachable deadline", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

func TestEvalWithRetryDoesNotRetryTerminal(t *testing.T) {
	c, calls := stubEval(t, 1000, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(server.ErrorBody{Error: "unknown technique"}) //nolint:errcheck // test stub
	})
	p := NewRetryPolicy(5, 1)
	p.Base = time.Millisecond

	_, err := c.EvalWithRetry(context.Background(), server.JobRequest{Technique: "nope"}, p)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("validation error was retried: %d calls", got)
	}
}

// TestRetryAfterSubSecondHint: the JSON retry_after_ms field carries
// sub-second hints the whole-seconds header would round to zero.
func TestRetryAfterSubSecondHint(t *testing.T) {
	c, _ := stubEval(t, 1, func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "0") // header rounds 250ms down to 0
		shed(250)(w)
	})
	_, err := c.Eval(context.Background(), server.JobRequest{Technique: "sraf"})
	var ov *Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want Overloaded", err)
	}
	if ov.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 250ms from the JSON hint", ov.RetryAfter)
	}
}

// TestRetryAfterZeroHintClamped: a shed with no usable hint at all
// must still carry a non-zero floor so retry loops cannot spin.
func TestRetryAfterZeroHintClamped(t *testing.T) {
	c, _ := stubEval(t, 1, func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusTooManyRequests) // no body, no header
	})
	_, err := c.Eval(context.Background(), server.JobRequest{Technique: "sraf"})
	var ov *Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want Overloaded", err)
	}
	if ov.RetryAfter != MinRetryAfter {
		t.Fatalf("RetryAfter = %v, want the %v floor", ov.RetryAfter, MinRetryAfter)
	}
}

// TestRetryAfterFractionalHeader: fractional Retry-After seconds are
// honored when the JSON hint is absent.
func TestRetryAfterFractionalHeader(t *testing.T) {
	c, _ := stubEval(t, 1, func(w http.ResponseWriter) {
		w.Header().Set("Retry-After", "0.5")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	_, err := c.Eval(context.Background(), server.JobRequest{Technique: "sraf"})
	var ov *Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want Overloaded", err)
	}
	if ov.RetryAfter != 500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 500ms", ov.RetryAfter)
	}
}

func TestDelayHintFloorsBackoff(t *testing.T) {
	p := NewRetryPolicy(3, 7)
	p.Base, p.Max = 10*time.Millisecond, 100*time.Millisecond
	hint := 80 * time.Millisecond
	for retry := 1; retry <= 3; retry++ {
		d := p.Delay(retry, hint)
		if d < hint/2 || d > hint {
			// Early retries' exponential backoff (10ms, 20ms) is far
			// below the hint, so the hint must take over.
			if d < hint/2 {
				t.Fatalf("retry %d delay %v dipped under half the server hint %v", retry, d, hint)
			}
		}
	}
}

func TestDelayDeterministicPerSeed(t *testing.T) {
	a := NewRetryPolicy(5, 99)
	b := NewRetryPolicy(5, 99)
	for retry := 1; retry <= 5; retry++ {
		if da, db := a.Delay(retry, 0), b.Delay(retry, 0); da != db {
			t.Fatalf("retry %d: seed-99 policies diverged (%v vs %v)", retry, da, db)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{ErrDraining, false},
		{&StatusError{Code: 400}, false},
		{&StatusError{Code: 502}, true},
		{&Overloaded{RetryAfter: time.Second}, true},
		{errors.New("dial tcp: connection refused"), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Fatalf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
