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

// Pool is the one executor: a fixed set of workers draining a bounded
// submission queue, each task through the per-attempt deadline, retry
// and panic machinery of runTask. Callers Submit one task at a time and
// receive its Result on a per-task channel; Run is a Pool sized to a
// batch. The queue depth and in-flight count are exported live so an
// admission layer can shed load on real signals instead of a static
// cap; they are read from the Pool, never from the obs registry, which
// several pools in one process would share.
type Pool struct {
	opts  Options
	queue chan *poolItem

	mu      sync.Mutex
	closed  bool
	closing atomic.Bool

	depth    atomic.Int64 // tasks queued, not yet picked up
	inflight atomic.Int64 // tasks a worker is currently running

	wg sync.WaitGroup
}

type poolItem struct {
	ctx    context.Context
	task   Task
	done   chan Result
	queued obs.Span // from Submit to pick-up; zero while the registry is off
}

// NewPool starts opts.Workers workers behind a submission queue of
// capacity queue beyond the in-flight work (values < 0 mean 0: a Submit
// only succeeds when a worker can pick the task up promptly). The
// caller must Close it to release them.
func NewPool(opts Options, queue int) *Pool {
	opts.Workers = max(opts.Workers, 1)
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.sleep == nil {
		opts.sleep = sleepCtx
	}
	p := &Pool{opts: opts, queue: make(chan *poolItem, max(queue, 0))}
	p.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
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
			continue
		}
		it.queued.End()
		p.inflight.Add(1)
		res := runTask(it.ctx, it.task, p.opts)
		p.inflight.Add(-1)
		it.done <- res
	}
}

// Submit enqueues one task without blocking. The returned channel
// receives exactly one Result (buffered — the pool never blocks on a
// caller that stopped listening). A full queue returns ErrQueueFull;
// a closed pool returns ErrPoolClosed. ctx cancels the task while
// queued or running: a task still queued when it is canceled settles
// as KindCanceled after one attempt that never calls Run.
func (p *Pool) Submit(ctx context.Context, t Task) (<-chan Result, error) {
	done := make(chan Result, 1)
	it := &poolItem{ctx: ctx, task: t, done: done, queued: hQueueWait.Start()}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	select {
	case p.queue <- it:
		p.depth.Add(1)
		p.mu.Unlock()
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
func (p *Pool) Workers() int { return p.opts.Workers }
