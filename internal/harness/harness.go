package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Task is one unit of work: a named evaluator, run once. Run must
// honor ctx cancellation at its internal checkpoints. Its int argument
// is always 0; the benchmark module (benchmark/) calls Run(ctx, 0), so
// the signature keeps it. The returned value is carried through to the
// Result even when err is non-nil (partial outcomes are useful).
type Task struct {
	Name string
	Run  func(ctx context.Context, _ int) (any, error)
	// Timeout is the task's wall-clock budget; 0 means none.
	Timeout time.Duration
}

// Options configures a Pool.
type Options struct {
	// Workers is the number of concurrent evaluator goroutines;
	// values < 1 mean 1.
	Workers int
}

// Result is one task's final state. Value holds whatever Run returned
// (possibly a partial outcome alongside Err); for timeouts of
// non-cooperative evaluators it is nil.
type Result struct {
	Name    string
	Value   any
	Err     error
	Runtime time.Duration
}

// Run executes a batch on a Pool of at most opts.Workers workers whose
// queue holds the whole batch, and returns results in task order. It
// never panics and never blocks past cancellation: a timed-out task
// is abandoned (its goroutine parks on a buffered channel and exits
// whenever the evaluator next observes ctx or finishes), a panicking
// task is recovered with its stack, and a canceled run settles the
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

// runTask runs one task, stamps its name on a harness error, and folds
// the settled result into the metrics.
func runTask(ctx context.Context, t Task) Result {
	start := time.Now()
	res := Result{Name: t.Name}
	res.Value, res.Err = runGuarded(ctx, t)
	res.Err = annotate(res.Err, t.Name)
	res.Runtime = time.Since(start)
	recordTask(t.Name, res)
	return res
}

type taskResult struct {
	v   any
	err error
}

// runGuarded runs the task in its own goroutine under its deadline, if
// any, recovering panics and classifying context errors into the
// taxonomy.
func runGuarded(ctx context.Context, t Task) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: KindCanceled, Err: err}
	}
	tctx := ctx
	cancel := func() {}
	hadDeadline := t.Timeout > 0
	if hadDeadline {
		tctx, cancel = context.WithTimeout(ctx, t.Timeout)
	}
	defer cancel()

	ch := make(chan taskResult, 1) // buffered: an abandoned task must not leak forever
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- taskResult{err: &Error{
					Kind:  KindPanic,
					Stack: debug.Stack(),
					Err:   fmt.Errorf("%v", r),
				}}
			}
		}()
		v, err := t.Run(tctx, 0)
		ch <- taskResult{v: v, err: classify(ctx, hadDeadline, err)}
	}()

	select {
	case r := <-ch:
		return r.v, r.err
	case <-tctx.Done():
		// The evaluator missed its deadline (or the run was
		// canceled). Abandon it; the goroutine exits on its own at
		// its next checkpoint or completion.
		return nil, classify(ctx, hadDeadline, tctx.Err())
	}
}

// classify maps raw errors into the taxonomy. parent is the caller's
// context, used to tell the task's deadline (timeout) from a
// whole-run cancellation; hadDeadline reports whether the task
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
		// The task context was canceled but the parent is live and
		// a deadline existed: the deadline path canceled it, treat as
		// timeout.
		return &Error{Kind: KindTimeout, Err: err}
	default:
		// Includes context.Canceled from an evaluator that ran with no
		// task deadline under a live parent: that cancellation is
		// the evaluator's own (a wrapped sub-context, a library's
		// sentinel reuse), not a harness timeout — pass it through
		// unclassified.
		return err
	}
}
