package client

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/server"
)

// Class is what a call to dfmd came to: the one reading of its error
// that the clients' retry loop, the router's failover and accounting,
// its health record and the load generator's tally all act on.
type Class int

const (
	// ClassOK: the call was answered.
	ClassOK Class = iota
	// ClassOverloaded: the node shed the call (429, *Overloaded) and
	// said when to come back.
	ClassOverloaded
	// ClassDraining: the node is shutting down (503, ErrDraining).
	ClassDraining
	// ClassRejected: the request is at fault — a 4xx verdict
	// (*StatusError below 500), a tile unit this client cannot key, or
	// a node that keys a tile unit differently — and every node would
	// say the same again.
	ClassRejected
	// ClassCanceled: the call's context ended.
	ClassCanceled
	// ClassFault: the node or the path to it failed — a 5xx, a tile job
	// settled failed (*TileFailed), a dial refused, a connection reset.
	ClassFault
)

// ClassOf classifies the error a call returned; nil is ClassOK. An
// error none of the classes names is transport-level, a fault.
func ClassOf(err error) Class {
	var (
		ov *Overloaded
		se *StatusError
	)
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	case errors.Is(err, ErrDraining):
		return ClassDraining
	case errors.As(err, &ov):
		return ClassOverloaded
	case errors.As(err, &se):
		if se.Code >= 500 {
			return ClassFault
		}
		return ClassRejected
	case errors.Is(err, errKeyMismatch), errors.Is(err, errUnkeyable):
		return ClassRejected
	}
	return ClassFault
}

// RetryPolicy is the backoff the clients and the router share: capped
// exponential backoff with full jitter on the top half of the window,
// the window raised to the server's Retry-After hint when one arrived
// (Delay). The clients retry through its loop (do); the router runs its
// own loop, with a retry budget and failover across backends. Both wait
// between attempts with Wait.
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
// the wait before the second attempt is retry 1): d, the exponential
// step, raised to hint when hint is larger, then drawn uniformly from
// [d/2, d]. A hint — the server's Overloaded.RetryAfter — so keeps
// every wait at or above half of what the server asked for: backing off
// much less just converts one shed into two.
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

// Wait sleeps the backoff before retry number `retry`, after an attempt
// that failed with last: Delay's, with the hint last carries when it is
// an overload. It reports whether the wait ran out, so the retry may go.
// A wait that would outlive ctx's deadline is refused at once, instead
// of sleeping into a guaranteed DeadlineExceeded, and a wait stops when
// ctx ends; either returns false, and ctx.Err tells the two apart.
func (p *RetryPolicy) Wait(ctx context.Context, retry int, last error) bool {
	var hint time.Duration
	var ov *Overloaded
	if errors.As(last, &ov) {
		hint = ov.RetryAfter
	}
	d := p.Delay(retry, hint)
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// do runs call until it succeeds, fails with an error not worth another
// attempt against the same endpoint, or the policy's attempts run out,
// waiting out the policy's backoff between attempts. Overload pushback
// and faults are worth one; a drain, a rejection and the caller's
// context ending are not. A nil policy means one attempt.
func (p *RetryPolicy) do(ctx context.Context, call func() error) error {
	if p == nil {
		p = &RetryPolicy{}
	}
	for attempt := 1; ; attempt++ {
		err := call()
		switch ClassOf(err) {
		case ClassOverloaded, ClassFault:
		default:
			return err
		}
		if attempt >= p.attempts() || !p.Wait(ctx, attempt, err) {
			return err
		}
	}
}

// EvalWithRetry submits and waits like Eval, retrying overloads and
// faults under the policy.
func (c *Client) EvalWithRetry(ctx context.Context, req server.JobRequest, p *RetryPolicy) (st server.JobStatus, err error) {
	err = p.do(ctx, func() (err error) {
		st, err = c.Eval(ctx, req)
		return err
	})
	return st, err
}
