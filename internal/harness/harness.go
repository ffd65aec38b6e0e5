package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Task is one unit of work: a named evaluator. Run receives the
// attempt number (0 for the first try) so retries can perturb
// workload seeds, and must honor ctx cancellation at its internal
// checkpoints. The returned value is carried through to the Result
// even when err is non-nil (partial outcomes are useful).
type Task struct {
	Name string
	Run  func(ctx context.Context, attempt int) (any, error)
	// Timeout is the per-attempt wall-clock budget; 0 means none.
	Timeout time.Duration
}

// Options configures a Pool.
type Options struct {
	// Workers is the number of concurrent evaluator goroutines;
	// values < 1 mean 1.
	Workers int
	// Retries is the number of extra attempts granted to retryable
	// errors (see IsRetryable); 0 means one attempt only.
	Retries int
	// Backoff is the first retry delay; it doubles each retry.
	// Defaults to 100ms when unset.
	Backoff time.Duration
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

// Run executes a batch on a Pool of at most opts.Workers workers whose
// queue holds the whole batch, and returns results in task order. It
// never panics and never blocks past cancellation: a timed-out attempt
// is abandoned (its goroutine parks on a buffered channel and exits
// whenever the evaluator next observes ctx or finishes), a panicking
// attempt is recovered with its stack, and a canceled run settles the
// tasks still queued as KindCanceled results without running them.
func Run(ctx context.Context, tasks []Task, opts Options) []Result {
	opts.Workers = min(opts.Workers, len(tasks))
	p := NewPool(opts, len(tasks))
	chans := make([]<-chan Result, len(tasks))
	for i, t := range tasks {
		// The queue holds the whole batch and the pool is open, so no
		// Submit is refused.
		chans[i], _ = p.Submit(ctx, t)
	}
	results := make([]Result, len(tasks))
	for i, ch := range chans {
		results[i] = <-ch
	}
	p.Close()
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
		res.Value, res.Err = runAttempt(ctx, t, attempt)
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

// runAttempt executes one attempt in its own goroutine under the
// task's deadline, if any, recovering panics and classifying context
// errors into the taxonomy.
func runAttempt(ctx context.Context, t Task, attempt int) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: KindCanceled, Err: err}
	}
	actx := ctx
	cancel := func() {}
	hadDeadline := t.Timeout > 0
	if hadDeadline {
		actx, cancel = context.WithTimeout(ctx, t.Timeout)
	}
	defer cancel()

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
