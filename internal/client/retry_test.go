package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
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
		json.NewEncoder(w).Encode(server.JobStatus{State: server.StateDone}) //nolint:errcheck // test stub
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
		// Every retry's exponential step (10ms, 20ms, 40ms) is below
		// the hint, so the wait is drawn from [hint/2, hint].
		if d := p.Delay(retry, hint); d < hint/2 || d > hint {
			t.Fatalf("retry %d delay %v outside [%v, %v]", retry, d, hint/2, hint)
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

// TestRetryableClassification is ClassOf's table: each error a call can
// return, its class, and whether the clients' retry loop tries again —
// on an overload or a fault, and on nothing else.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOK},
		{context.Canceled, ClassCanceled},
		{context.DeadlineExceeded, ClassCanceled},
		{&url.Error{Op: "Post", URL: "http://n0/v1/jobs", Err: context.DeadlineExceeded}, ClassCanceled},
		{ErrDraining, ClassDraining},
		{&StatusError{Code: 400, Msg: "unknown technique"}, ClassRejected},
		{&StatusError{Code: 499}, ClassRejected},
		{&StatusError{Code: 500}, ClassFault},
		{&StatusError{Code: 502}, ClassFault},
		{fmt.Errorf("%w: the job settled under another key", errKeyMismatch), ClassRejected},
		{&Overloaded{RetryAfter: time.Millisecond}, ClassOverloaded},
		{fmt.Errorf("attempt 2: %w", &Overloaded{RetryAfter: time.Millisecond}), ClassOverloaded},
		{&TileFailed{Key: "sha256:0", Msg: "worker panicked"}, ClassFault},
		{errors.New("dial tcp: connection refused"), ClassFault},
	}
	p := NewRetryPolicy(2, 1)
	p.Base, p.Max = time.Millisecond, time.Millisecond
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.err), func(t *testing.T) {
			if got := ClassOf(tc.err); got != tc.want {
				t.Fatalf("ClassOf(%v) = %d, want %d", tc.err, got, tc.want)
			}
			calls, want := 0, 1
			if tc.want == ClassOverloaded || tc.want == ClassFault {
				want = 2
			}
			p.do(context.Background(), func() error { calls++; return tc.err }) //nolint:errcheck // calls are under test
			if calls != want {
				t.Fatalf("%v was tried %d times under a 2-attempt policy, want %d", tc.err, calls, want)
			}
		})
	}
}
