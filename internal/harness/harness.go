package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// Task is one unit of work: a named evaluator. Run receives the
// attempt number (0 for the first try) so retries can perturb
// workload seeds, and must honor ctx cancellation at its internal
// checkpoints. The returned value is carried through to the Result
// even when err is non-nil (partial outcomes are useful).
type Task struct {
	Name string
	Run  func(ctx context.Context, attempt int) (any, error)
	// Timeout overrides Options.Timeout for this task when > 0.
	Timeout time.Duration
}

// Hook is called before each attempt. Fault injection and
// instrumentation plug in here; a returned error fails the attempt
// exactly as if the evaluator had returned it, and a panic is
// recovered like an evaluator panic.
type Hook func(ctx context.Context, technique string, attempt int) error

// Options configures a Run.
type Options struct {
	// Parallel is the worker-pool size; values < 1 mean sequential.
	Parallel int
	// Timeout is the per-attempt wall-clock budget; 0 means none.
	Timeout time.Duration
	// Retries is the number of extra attempts granted to retryable
	// errors (see IsRetryable); 0 means one attempt only.
	Retries int
	// Backoff is the first retry delay; it doubles each retry.
	// Defaults to 100ms when unset.
	Backoff time.Duration
	// Hook, when set, runs before every attempt.
	Hook Hook
	// sleep is injectable for tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// Result is one task's final state. Value holds whatever the last
// attempt returned (possibly a partial outcome alongside Err); for
// timeouts of non-cooperative evaluators it is nil.
type Result struct {
	Name     string
	Value    any
	Err      error
	Attempts int
	Runtime  time.Duration
}

// Run executes every task on at most Parallel workers (ForEach) and
// returns results in task order. It never panics and never blocks past
// cancellation: a timed-out attempt is abandoned (its goroutine
// parks on a buffered channel and exits whenever the evaluator next
// observes ctx or finishes), a panicking attempt is recovered with
// its stack, and a canceled run settles the tasks no worker reached as
// KindCanceled results.
func Run(ctx context.Context, tasks []Task, opts Options) []Result {
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.sleep == nil {
		opts.sleep = sleepCtx
	}

	results := make([]Result, len(tasks))
	// Queue wait: time from dispatch start until a worker picks the
	// task up — the pool-saturation signal. The clock is only read
	// while the metrics registry is recording.
	metered := obs.Enabled()
	var dispatchStart time.Time
	if metered {
		obs.G("harness.pool.workers").Set(float64(min(max(opts.Parallel, 1), len(tasks))))
		dispatchStart = time.Now()
	}
	ForEach(ctx, opts.Parallel, len(tasks), func(i int) {
		if metered {
			hQueueWait.ObserveSince(dispatchStart)
		}
		results[i] = runTask(ctx, tasks[i], opts)
	})
	// Cancellation stops dispatch; runTask on the canceled ctx settles
	// what was never picked up without running it.
	for i := range results {
		if results[i].Attempts == 0 {
			results[i] = runTask(ctx, tasks[i], opts)
		}
	}
	return results
}

// runTask drives one task's attempt loop: run, classify, and retry
// retryable failures with exponential backoff until attempts or the
// parent context run out.
func runTask(ctx context.Context, t Task, opts Options) Result {
	start := time.Now()
	res := Result{Name: t.Name}
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		res.Value, res.Err = runAttempt(ctx, t, attempt, opts)
		if res.Err == nil || !IsRetryable(res.Err) || attempt >= opts.Retries {
			break
		}
		if opts.sleep(ctx, backoff(opts.Backoff, attempt)) != nil {
			break // canceled mid-backoff; keep the last real error
		}
	}
	res.Err = annotate(res.Err, t.Name, res.Attempts)
	res.Runtime = time.Since(start)
	recordTask(t.Name, res)
	return res
}

// backoff returns the delay before retry number `attempt+1`,
// doubling per attempt and capped at 64x the base.
func backoff(base time.Duration, attempt int) time.Duration {
	if attempt > 6 {
		attempt = 6
	}
	return base << uint(attempt)
}

type attemptResult struct {
	v   any
	err error
}

// runAttempt executes one attempt in its own goroutine under an
// optional deadline, recovering panics and classifying context
// errors into the taxonomy.
func runAttempt(ctx context.Context, t Task, attempt int, opts Options) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: KindCanceled, Err: err}
	}
	actx := ctx
	cancel := func() {}
	timeout := opts.Timeout
	if t.Timeout > 0 {
		timeout = t.Timeout
	}
	if timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	hadDeadline := timeout > 0

	ch := make(chan attemptResult, 1) // buffered: abandoned attempts must not leak forever
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- attemptResult{err: &Error{
					Kind:  KindPanic,
					Stack: debug.Stack(),
					Err:   fmt.Errorf("%v", r),
				}}
			}
		}()
		if opts.Hook != nil {
			if err := opts.Hook(actx, t.Name, attempt); err != nil {
				ch <- attemptResult{err: classify(ctx, hadDeadline, err)}
				return
			}
		}
		v, err := t.Run(actx, attempt)
		ch <- attemptResult{v: v, err: classify(ctx, hadDeadline, err)}
	}()

	select {
	case r := <-ch:
		return r.v, r.err
	case <-actx.Done():
		// The evaluator missed its deadline (or the run was
		// canceled). Abandon the attempt; the goroutine exits on its
		// own at its next checkpoint or completion.
		return nil, classify(ctx, hadDeadline, actx.Err())
	}
}

// classify maps raw errors into the taxonomy. parent is the caller's
// context, used to tell a per-attempt deadline (timeout) from a
// whole-run cancellation; hadDeadline reports whether this attempt
// actually ran under one. Already-classified errors pass through.
func classify(parent context.Context, hadDeadline bool, err error) error {
	if err == nil {
		return nil
	}
	var he *Error
	if errors.As(err, &he) {
		return err
	}
	switch {
	case parent.Err() != nil:
		return &Error{Kind: KindCanceled, Err: err}
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Kind: KindTimeout, Err: err}
	case errors.Is(err, context.Canceled) && hadDeadline:
		// The attempt context was canceled but the parent is live and
		// a deadline existed: the deadline path canceled it, treat as
		// timeout.
		return &Error{Kind: KindTimeout, Err: err}
	default:
		// Includes context.Canceled from an evaluator that ran with no
		// attempt deadline under a live parent: that cancellation is
		// the evaluator's own (a wrapped sub-context, a library's
		// sentinel reuse), not a harness timeout — pass it through
		// unclassified.
		return err
	}
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
