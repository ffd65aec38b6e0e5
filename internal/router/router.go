// Package router is the fault-tolerant front tier over a fleet of
// dfmd nodes (`cmd/dfmrouter`): it spreads `/v1/jobs` traffic across
// backends by content-address affinity (consistent hashing over the
// sha256 cache key the client claims beside its request, which turns N
// per-node LRU caches into one effectively global cache with no shared
// store) without reading a job in either direction: a submission's
// bytes go to the chosen node as they came and the node's answer goes
// back as it came (http.go), so validity and identity stay the node's. It keeps the paper's
// interactive-checking contract honest when nodes die: active health
// probes with threshold eviction and probe-based reinstatement,
// per-backend circuit breakers, retry-on-another-replica with jittered
// backoff that honors server Retry-After hints, and a retry *budget* so
// a cluster-wide outage sheds load instead of amplifying it.
package router

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// Config sizes the router.
type Config struct {
	// Backends are the dfmd base URLs. Each gets a stable name from
	// its position ("n0", "n1", ...): restart a node on the same slot
	// and it keeps its ring arcs and outstanding job IDs.
	Backends []string
	// Vnodes is the virtual-node count per backend on the affinity
	// ring; default 128.
	Vnodes int

	// CheckInterval/CheckTimeout drive the active health prober;
	// defaults 500ms / 1s. FailAfter consecutive probe failures evict
	// a backend, RiseAfter consecutive successes reinstate it;
	// defaults 3 / 2.
	CheckInterval time.Duration
	CheckTimeout  time.Duration
	FailAfter     int
	RiseAfter     int

	// BreakerThreshold consecutive data-path failures open a
	// backend's circuit; it half-opens after BreakerCooldown;
	// defaults 5 / 2s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// MaxAttempts bounds tries per request across replicas (first
	// attempt included); default 3. RetryBase/RetryMax shape the
	// jittered exponential backoff between them; defaults 25ms / 2s.
	MaxAttempts int
	RetryBase   time.Duration
	RetryMax    time.Duration
	// AttemptTimeout caps one backend attempt so a black-holed
	// connection becomes a failover, not a hung client; 0 disables.
	// Default 1m (comfortably above any evaluation, far below a
	// human giving up).
	AttemptTimeout time.Duration

	// RetryBudget caps cluster-wide retry amplification: each
	// failure spends a token, each success refunds retryRatio of
	// one, and retries are denied below half the bucket — so when
	// every backend is dying the router degrades to one attempt per
	// request instead of multiplying the assault by MaxAttempts.
	// Default: a 100-token bucket.
	RetryBudget int

	// Seed fixes the backoff jitter stream; 0 uses 1. Deterministic
	// jitter is what makes failover tests repeatable.
	Seed int64

	// Transport overrides the HTTP transport to every backend (tests
	// inject faultinject.Transport here); nil uses the default.
	Transport http.RoundTripper
	// Logf receives router lifecycle lines; nil uses log.Printf.
	// Quiet callers pass a no-op.
	Logf func(string, ...any)

	// now overrides the breaker clock in tests.
	now func() time.Time
}

// retryRatio is the share of a retry-budget token one success refunds.
const retryRatio = 0.1

func (c Config) withDefaults() Config {
	if c.Vnodes == 0 {
		c.Vnodes = 128
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = 500 * time.Millisecond
	}
	if c.CheckTimeout == 0 {
		c.CheckTimeout = time.Second
	}
	if c.FailAfter == 0 {
		c.FailAfter = 3
	}
	if c.RiseAfter == 0 {
		c.RiseAfter = 2
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase == 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = time.Minute
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Stats is the router's always-on accounting.
type Stats struct {
	Requests       int64 `json:"requests"`
	OK             int64 `json:"ok"`
	Failed         int64 `json:"failed"`
	Retries        int64 `json:"retries"`
	Failovers      int64 `json:"failovers"`
	NoBackend      int64 `json:"noBackend"`
	BudgetDenied   int64 `json:"retryBudgetDenied"`
	BreakerBlocked int64 `json:"breakerBlocked"`
	// TileJobs counts tile work units routed to completion; TileReused
	// counts those a backend answered from cache or deduped into an
	// in-flight twin — the fleet-wide duplicate-tile hit signal.
	TileJobs   int64           `json:"tileJobs"`
	TileReused int64           `json:"tileReused"`
	Draining   bool            `json:"draining"`
	Backends   []BackendStatus `json:"backends"`
}

// Router routes jobs across dfmd backends. Build with New; the
// caller owns Shutdown.
type Router struct {
	cfg      Config
	backends []*Backend
	byName   map[string]*Backend
	ring     *ring
	retry    *client.RetryPolicy
	budget   *throttle

	draining atomic.Bool
	inflight sync.WaitGroup
	stop     chan struct{}
	loops    sync.WaitGroup

	requests, ok, failed    atomic.Int64
	retries, failovers      atomic.Int64
	noBackend, budgetDenied atomic.Int64
	breakerBlocked          atomic.Int64
	tileJobs, tileReused    atomic.Int64
}

// New builds the router and starts its health probers.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	hc := &http.Client{Transport: cfg.Transport}
	names := make([]string, len(cfg.Backends))
	backends := make([]*Backend, len(cfg.Backends))
	byName := make(map[string]*Backend, len(cfg.Backends))
	for i, url := range cfg.Backends {
		names[i] = fmt.Sprintf("n%d", i)
		backends[i] = newBackend(names[i], url, hc, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now)
		byName[names[i]] = backends[i]
	}
	retry := client.NewRetryPolicy(cfg.MaxAttempts, cfg.Seed)
	retry.Base, retry.Max = cfg.RetryBase, cfg.RetryMax
	r := &Router{
		cfg:      cfg,
		backends: backends,
		byName:   byName,
		ring:     newRing(names, cfg.Vnodes),
		retry:    retry,
		budget:   newThrottle(float64(cfg.RetryBudget)),
		stop:     make(chan struct{}),
	}
	for _, b := range backends {
		r.loops.Add(1)
		go r.healthLoop(b)
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) { r.cfg.Logf(format, args...) }

// errNoBackend is returned when no healthy, breaker-admitted backend
// remains to try.
var errNoBackend = errors.New("router: no available backend")

// pick returns the first eligible backend not in tried, in the key's
// ring order: every request for the same key goes to the same node, so
// the per-node LRU caches tile the keyspace instead of each holding a
// diluted copy, and retries continue down the same order, so the ring's
// ranking is also the failover plan — a down node's keys stay
// concentrated on one successor. Health is filtered here, on every
// retry, so the ranking stays valid as nodes flap.
func (r *Router) pick(key string, tried map[*Backend]bool) *Backend {
	for _, name := range r.ring.seq(key, len(r.backends)) {
		b := r.byName[name]
		if tried[b] || !b.up.Load() {
			continue
		}
		if !b.breaker.allow() {
			r.breakerBlocked.Add(1)
			mBreakerHit.Inc()
			continue
		}
		return b
	}
	return nil
}

// route drives one request through pick → call → classify → failover
// until it succeeds, exhausts its attempt/budget allowance, or hits a
// terminal error. call is the per-backend operation: the same bytes
// sent to whichever backend is picked.
func (r *Router) route(ctx context.Context, key string, call func(context.Context, *Backend) (*client.Reply, error)) (*client.Reply, *Backend, error) {
	r.requests.Add(1)
	mRequests.Inc()
	start := time.Now()
	tried := make(map[*Backend]bool)
	var (
		lastErr error
		hint    time.Duration
	)
	for attempt := 1; attempt <= r.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			if !r.budget.allowRetry() {
				r.budgetDenied.Add(1)
				mBudgetDeny.Inc()
				break
			}
			r.retries.Add(1)
			mRetries.Inc()
			d := r.retry.Delay(attempt-1, hint)
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
				break
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				r.failed.Add(1)
				mFailed.Inc()
				return nil, nil, ctx.Err()
			}
		}
		b := r.pick(key, tried)
		if b == nil && len(tried) > 0 {
			// Every distinct replica was tried once; a further attempt
			// may re-try one that has had time to recover.
			clear(tried)
			b = r.pick(key, tried)
		}
		if b == nil {
			r.noBackend.Add(1)
			mNoBackend.Inc()
			if lastErr == nil {
				lastErr = errNoBackend
			}
			break
		}
		tried[b] = true
		if attempt > 1 {
			r.failovers.Add(1)
			mFailovers.Inc()
		}
		b.picks.Add(1)
		b.inflight.Add(1)
		actx, cancel := ctx, func() {}
		if r.cfg.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.cfg.AttemptTimeout)
		}
		rep, err := call(actx, b)
		cancel()
		b.inflight.Add(-1)
		hint = 0
		o := classify(err)
		if o == outcomeTerminal && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			// The *attempt* timed out, not the caller: a black-holed
			// backend. That is a transport fault — fail over.
			o = outcomeFault
		}
		switch o {
		case outcomeOK:
			b.oks.Add(1)
			b.breaker.success()
			r.budget.onSuccess()
			r.ok.Add(1)
			mOK.Inc()
			mE2E.ObserveSince(start)
			return rep, b, nil
		case outcomeOverloaded:
			// The node is alive and pushing back; that is not a
			// breaker-worthy fault, but it does spend retry budget —
			// retrying into an overloaded cluster is amplification too.
			b.sheds.Add(1)
			b.breaker.success()
			r.budget.onFailure()
			hint = client.RetryHint(err)
			lastErr = err
		case outcomeDraining:
			// Deliberate drain: evict now rather than waiting out the
			// probe threshold, and don't charge the budget — the node
			// told us cleanly, nothing is burning.
			r.evict(b, "draining on submit")
			lastErr = err
		case outcomeTerminal:
			// Validation errors and context expiry: the other
			// replicas would say exactly the same thing.
			b.breaker.success()
			r.failed.Add(1)
			mFailed.Inc()
			return nil, b, err
		case outcomeFault:
			b.fails.Add(1)
			b.breaker.failure()
			r.budget.onFailure()
			lastErr = err
		}
	}
	r.failed.Add(1)
	mFailed.Inc()
	return nil, nil, lastErr
}

// request outcomes, classified from the backend client's error.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeOverloaded
	outcomeDraining
	outcomeFault
	outcomeTerminal
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return outcomeTerminal
	case errors.Is(err, client.ErrDraining):
		return outcomeDraining
	}
	var ov *client.Overloaded
	if errors.As(err, &ov) {
		return outcomeOverloaded
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		if se.Code >= 500 {
			return outcomeFault
		}
		return outcomeTerminal
	}
	// Transport-level: dial refused, reset, EOF mid-body, ...
	return outcomeFault
}

// Stats snapshots the router counters and per-backend states.
func (r *Router) Stats() Stats {
	st := Stats{
		Requests:       r.requests.Load(),
		OK:             r.ok.Load(),
		Failed:         r.failed.Load(),
		Retries:        r.retries.Load(),
		Failovers:      r.failovers.Load(),
		NoBackend:      r.noBackend.Load(),
		BudgetDenied:   r.budgetDenied.Load(),
		BreakerBlocked: r.breakerBlocked.Load(),
		TileJobs:       r.tileJobs.Load(),
		TileReused:     r.tileReused.Load(),
		Draining:       r.draining.Load(),
	}
	for _, b := range r.backends {
		st.Backends = append(st.Backends, b.status())
	}
	return st
}

// Shutdown drains the router, mirroring dfmd's SIGTERM semantics:
// new submissions answer 503 immediately, requests already being
// routed run to completion (failovers included) unless ctx expires
// first, and the health probers stop. Safe to call more than once.
func (r *Router) Shutdown(ctx context.Context) error {
	r.draining.Store(true)
	done := make(chan struct{})
	go func() {
		r.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	select {
	case <-r.stop:
		// already closed by an earlier Shutdown
	default:
		close(r.stop)
	}
	r.loops.Wait()
	return err
}

// throttle is a gRPC-style retry budget: a token bucket where
// failures spend a whole token, successes refund retryRatio of one, and
// retries are allowed only while the bucket is above half. No clock —
// the budget tracks the live success:failure mix, so a healthy
// cluster always has retries available and a dying one runs out
// within ~cap/2 failures.
type throttle struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
}

func newThrottle(cap float64) *throttle {
	return &throttle{tokens: cap, cap: cap}
}

func (t *throttle) allowRetry() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tokens > t.cap/2
}

func (t *throttle) onFailure() {
	t.mu.Lock()
	t.tokens = math.Max(0, t.tokens-1)
	t.mu.Unlock()
}

func (t *throttle) onSuccess() {
	t.mu.Lock()
	t.tokens = math.Min(t.cap, t.tokens+retryRatio)
	t.mu.Unlock()
}
