package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Pool errors. Submit returns them directly (not wrapped in *Error):
// they are admission decisions, not evaluator failures.
var (
	// ErrQueueFull: the bounded submission queue is at capacity. The
	// caller owns the shedding policy (retry, backoff, 429, ...).
	ErrQueueFull = errors.New("harness: pool queue full")
	// ErrPoolClosed: the pool no longer accepts work. Tasks that were
	// still queued when Close began settle with a KindCanceled result
	// wrapping this sentinel.
	ErrPoolClosed = errors.New("harness: pool closed")
)

// Live pool gauges, shared by every Pool in the process (a serving
// process runs one). Admission controllers should prefer the Pool
// accessors — these exist so /metrics snapshots carry the signals.
var (
	gPoolQueueDepth = obs.G("harness.pool.queue_depth")
	gPoolInFlight   = obs.G("harness.pool.inflight")
	gPoolSaturation = obs.G("harness.pool.saturation")
)

// PoolOptions configures a persistent pool.
type PoolOptions struct {
	// Workers is the number of concurrent evaluator goroutines;
	// values < 1 mean 1.
	Workers int
	// Queue is the submission-queue capacity beyond the in-flight
	// work; values < 0 mean 0 (a Submit only succeeds when a worker
	// can pick the task up promptly).
	Queue int
	// Retries and Backoff behave exactly as in Options and apply to
	// every submitted task. The pool sets no deadline of its own: a
	// task's is its Task.Timeout.
	Retries int
	Backoff time.Duration
}

// Pool is the long-lived sibling of Run for serving workloads: a
// fixed set of workers draining a bounded submission queue, with the
// same per-attempt deadline/retry/panic machinery per task. Unlike
// Run, the task set is open-ended — callers Submit one task at a time
// and receive its Result on a per-task channel — and the queue depth
// and worker saturation are exported live so an admission layer can
// shed load on real signals instead of a static cap.
type Pool struct {
	opts  Options
	queue chan *poolItem

	mu      sync.Mutex
	closed  bool
	closing atomic.Bool

	depth    atomic.Int64 // tasks queued, not yet picked up
	inflight atomic.Int64 // tasks a worker is currently running

	workers int
	wg      sync.WaitGroup
}

type poolItem struct {
	ctx  context.Context
	task Task
	done chan Result
}

// NewPool starts the workers and returns the pool. The caller must
// Close it to release them.
func NewPool(opts PoolOptions) *Pool {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	queue := opts.Queue
	if queue < 0 {
		queue = 0
	}
	p := &Pool{
		opts:    Options{Retries: opts.Retries, Backoff: opts.Backoff},
		queue:   make(chan *poolItem, queue),
		workers: workers,
	}
	if p.opts.Backoff <= 0 {
		p.opts.Backoff = 100 * time.Millisecond
	}
	if p.opts.sleep == nil {
		p.opts.sleep = sleepCtx
	}
	if obs.Enabled() {
		obs.G("harness.pool.workers").Set(float64(workers))
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for it := range p.queue {
		p.depth.Add(-1)
		if p.closing.Load() {
			// Queued when Close began: settle with a clean rejection
			// instead of starting late work during a drain.
			it.done <- Result{Name: it.task.Name, Attempts: 0,
				Err: &Error{Kind: KindCanceled, Technique: it.task.Name, Err: ErrPoolClosed}}
			p.publishGauges()
			continue
		}
		p.inflight.Add(1)
		p.publishGauges()
		res := runTask(it.ctx, it.task, p.opts)
		p.inflight.Add(-1)
		p.publishGauges()
		it.done <- res
	}
}

// Submit enqueues one task without blocking. The returned channel
// receives exactly one Result (buffered — the pool never blocks on a
// caller that stopped listening). A full queue returns ErrQueueFull;
// a closed pool returns ErrPoolClosed. ctx cancels the task while
// queued or running, through the same classification Run uses.
func (p *Pool) Submit(ctx context.Context, t Task) (<-chan Result, error) {
	done := make(chan Result, 1)
	it := &poolItem{ctx: ctx, task: t, done: done}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	select {
	case p.queue <- it:
		p.depth.Add(1)
		p.mu.Unlock()
		p.publishGauges()
		return done, nil
	default:
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// Close stops admission, rejects every still-queued task with a
// KindCanceled/ErrPoolClosed result, lets in-flight tasks run to
// completion, and waits for the workers to exit. Safe to call more
// than once.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	if !already {
		p.closed = true
		p.closing.Store(true)
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// QueueDepth returns the number of submitted tasks no worker has
// picked up yet.
func (p *Pool) QueueDepth() int { return int(p.depth.Load()) }

// InFlight returns the number of tasks currently running.
func (p *Pool) InFlight() int { return int(p.inflight.Load()) }

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Saturation returns the busy-worker fraction in [0, 1].
func (p *Pool) Saturation() float64 {
	return float64(p.inflight.Load()) / float64(p.workers)
}

// publishGauges mirrors the live signals into the metrics registry.
func (p *Pool) publishGauges() {
	if !obs.Enabled() {
		return
	}
	gPoolQueueDepth.Set(float64(p.depth.Load()))
	gPoolInFlight.Set(float64(p.inflight.Load()))
	gPoolSaturation.Set(p.Saturation())
}
