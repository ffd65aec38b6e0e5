package client

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/server"
)

// RetryPolicy is the one retry loop the load generator and the router
// both lean on: capped exponential backoff with full jitter on the
// top half of the window, a floor taken from the server's Retry-After
// hint when one arrived, and hard respect for the caller's context —
// a retry whose backoff cannot finish before the deadline is not
// attempted at all.
type RetryPolicy struct {
	// MaxAttempts is the total try count (first attempt included);
	// values below 1 mean 1 — no retries.
	MaxAttempts int
	// Base is the first retry's backoff; each further retry doubles
	// it, capped at Max. Defaults: 25ms base, 2s max.
	Base time.Duration
	Max  time.Duration

	// mu guards rng: policies are shared across request goroutines.
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetryPolicy returns a policy with the given attempt budget and a
// deterministic jitter stream — same seed, same backoff schedule,
// which is what makes failover tests and benchmark runs repeatable.
func NewRetryPolicy(maxAttempts int, seed int64) *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts: maxAttempts,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

func (p *RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay computes the backoff before retry number `retry` (1-based:
// the wait before the second attempt is retry 1). A positive hint —
// the server's Overloaded.RetryAfter — floors the result: backing off
// less than the server asked for just converts one shed into two.
func (p *RetryPolicy) Delay(retry int, hint time.Duration) time.Duration {
	base, max := p.Base, p.Max
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if hint > d {
		d = hint
	}
	// Full jitter on the top half: uniform in [d/2, d]. Decorrelates
	// retry herds without ever dipping under half the server's hint.
	half := d / 2
	p.mu.Lock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(1))
	}
	j := time.Duration(p.rng.Int63n(int64(half) + 1))
	p.mu.Unlock()
	return half + j
}

// Retryable reports whether the error is worth another attempt
// against the same endpoint: overload pushback and transport-level
// failures are; validation errors (4xx), drain rejections, a node that
// keys a tile unit differently, and context expiry are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrDraining) || errors.Is(err, errKeyMismatch) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	var ov *Overloaded
	if errors.As(err, &ov) {
		return true
	}
	// Anything else from Client.do at this point is transport-level
	// (dial refused, reset mid-body, hung connection killed by ctx at
	// the caller's budget — that case was excluded above).
	return true
}

// RetryHint extracts the server's backoff request, if the error
// carried one.
func RetryHint(err error) time.Duration {
	var ov *Overloaded
	if errors.As(err, &ov) {
		return ov.RetryAfter
	}
	return 0
}

// do runs call until it succeeds, fails with an error not worth
// retrying, or the policy's attempts run out, sleeping the policy's
// backoff (floored by the server's hint) between attempts. A nil policy
// means one attempt. The context deadline is load-bearing: a backoff
// that would outlive it returns the last error immediately instead of
// sleeping into a guaranteed DeadlineExceeded.
func (p *RetryPolicy) do(ctx context.Context, call func() error) error {
	if p == nil {
		p = &RetryPolicy{}
	}
	for attempt := 1; ; attempt++ {
		err := call()
		if err == nil || attempt >= p.attempts() || !Retryable(err) {
			return err
		}
		d := p.Delay(attempt, RetryHint(err))
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
			return err
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// EvalWithRetry submits and waits like Eval, retrying retryable
// failures under the policy.
func (c *Client) EvalWithRetry(ctx context.Context, req server.JobRequest, p *RetryPolicy) (st server.JobStatus, err error) {
	err = p.do(ctx, func() (err error) {
		st, err = c.Eval(ctx, req)
		return err
	})
	return st, err
}
