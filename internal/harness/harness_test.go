package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPreservesTaskOrder(t *testing.T) {
	var tasks []Task
	for i := 0; i < 10; i++ {
		i := i
		tasks = append(tasks, Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context, _ int) (any, error) {
				return i * i, nil
			},
		})
	}
	results := Run(context.Background(), tasks, Options{Workers: 4})
	if len(results) != 10 {
		t.Fatalf("results = %d, want 10", len(results))
	}
	for i, r := range results {
		if r.Name != fmt.Sprintf("t%d", i) || r.Value != i*i || r.Err != nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestBoundedParallelism(t *testing.T) {
	var cur, peak int32
	var mu sync.Mutex
	tasks := make([]Task, 12)
	for i := range tasks {
		tasks[i] = Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context, _ int) (any, error) {
				n := atomic.AddInt32(&cur, 1)
				mu.Lock()
				if n > peak {
					peak = n
				}
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				atomic.AddInt32(&cur, -1)
				return nil, nil
			},
		}
	}
	Run(context.Background(), tasks, Options{Workers: 3})
	mu.Lock()
	defer mu.Unlock()
	if peak > 3 {
		t.Fatalf("peak concurrency %d exceeds pool size 3", peak)
	}
	if peak < 2 {
		t.Fatalf("peak concurrency %d: pool not actually parallel", peak)
	}
}

func TestPanicRecovered(t *testing.T) {
	tasks := []Task{
		{Name: "boom", Run: func(ctx context.Context, _ int) (any, error) {
			panic("kaboom in evaluator")
		}},
		{Name: "fine", Run: func(ctx context.Context, _ int) (any, error) {
			return "ok", nil
		}},
	}
	results := Run(context.Background(), tasks, Options{Workers: 2})
	if !errors.Is(results[0].Err, ErrPanic) {
		t.Fatalf("panic not classified: %v", results[0].Err)
	}
	var he *Error
	if !errors.As(results[0].Err, &he) {
		t.Fatalf("panic error not a *Error: %T", results[0].Err)
	}
	if he.Technique != "boom" || !strings.Contains(he.Err.Error(), "kaboom") {
		t.Fatalf("panic error poorly annotated: %+v", he)
	}
	if len(he.Stack) == 0 || !strings.Contains(string(he.Stack), "goroutine") {
		t.Fatalf("panic stack not captured")
	}
	if results[1].Err != nil || results[1].Value != "ok" {
		t.Fatalf("healthy task disturbed by sibling panic: %+v", results[1])
	}
}

func TestTimeoutAbandonsHungTask(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	tasks := []Task{
		{Name: "hang", Timeout: 30 * time.Millisecond, Run: func(ctx context.Context, _ int) (any, error) {
			<-release // ignores ctx: a truly wedged evaluator
			return nil, nil
		}},
		{Name: "fine", Timeout: 30 * time.Millisecond, Run: func(ctx context.Context, _ int) (any, error) {
			return 42, nil
		}},
	}
	start := time.Now()
	results := Run(context.Background(), tasks, Options{Workers: 2})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run blocked on hung task: %v", elapsed)
	}
	if !errors.Is(results[0].Err, ErrTimeout) {
		t.Fatalf("hung task not classified timeout: %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Value != 42 {
		t.Fatalf("healthy task disturbed: %+v", results[1])
	}
}

func TestCooperativeTimeout(t *testing.T) {
	tasks := []Task{
		{Name: "coop", Timeout: 20 * time.Millisecond, Run: func(ctx context.Context, _ int) (any, error) {
			<-ctx.Done() // evaluator notices its budget expired
			return "partial", ctx.Err()
		}},
	}
	results := Run(context.Background(), tasks, Options{})
	if !errors.Is(results[0].Err, ErrTimeout) {
		t.Fatalf("cooperative deadline not classified timeout: %v", results[0].Err)
	}
}

// TestTerminalErrorNotRetried: every failure is final. A workload
// error runs once and keeps its kind; a plain error runs once and
// stays unclassified.
func TestTerminalErrorNotRetried(t *testing.T) {
	var workload, plain int32
	tasks := []Task{
		{Name: "workload", Run: func(ctx context.Context, _ int) (any, error) {
			atomic.AddInt32(&workload, 1)
			return nil, Workloadf("seed %d: degenerate workload", 7)
		}},
		{Name: "plain", Run: func(ctx context.Context, _ int) (any, error) {
			atomic.AddInt32(&plain, 1)
			return nil, errors.New("deterministic evaluation failure")
		}},
	}
	results := Run(context.Background(), tasks, Options{Workers: 2})
	if workload != 1 || plain != 1 {
		t.Fatalf("runs = %d workload, %d plain; want 1 each", workload, plain)
	}
	var he *Error
	if !errors.As(results[0].Err, &he) || he.Kind != KindWorkload || he.Technique != "workload" {
		t.Fatalf("workload error = %#v, want KindWorkload stamped with its task", results[0].Err)
	}
	if got, want := results[0].Err.Error(), "workload: seed 7: degenerate workload"; got != want {
		t.Fatalf("workload error = %q, want %q", got, want)
	}
	if KindOf(results[1].Err) != KindNone {
		t.Fatalf("plain error reclassified: %v", results[1].Err)
	}
}

func TestCanceledRunDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var tasks []Task
	tasks = append(tasks, Task{Name: "first", Run: func(ctx context.Context, _ int) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	for i := 0; i < 4; i++ {
		tasks = append(tasks, Task{Name: fmt.Sprintf("queued%d", i),
			Run: func(ctx context.Context, _ int) (any, error) { return "ran", nil }})
	}
	go func() {
		<-started
		cancel()
	}()
	results := Run(ctx, tasks, Options{Workers: 1})
	if !errors.Is(results[0].Err, ErrCanceled) {
		t.Fatalf("in-flight task not canceled: %v", results[0].Err)
	}
	for _, r := range results[1:] {
		if !errors.Is(r.Err, ErrCanceled) || r.Value != nil {
			t.Fatalf("queued task %s not drained as canceled without running: %v (value %v)", r.Name, r.Err, r.Value)
		}
	}
}

func TestErrorTaxonomyMatching(t *testing.T) {
	cases := []struct {
		err  error
		want error
		kind Kind
	}{
		{&Error{Kind: KindTimeout}, ErrTimeout, KindTimeout},
		{&Error{Kind: KindPanic}, ErrPanic, KindPanic},
		{Workload(errors.New("x")), ErrWorkload, KindWorkload},
		{&Error{Kind: KindCanceled}, ErrCanceled, KindCanceled},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%v does not match its sentinel", c.err)
		}
		if KindOf(c.err) != c.kind {
			t.Errorf("KindOf(%v) = %v, want %v", c.err, KindOf(c.err), c.kind)
		}
		// A kind must only match its own sentinel.
		for _, other := range cases {
			if other.want != c.want && errors.Is(c.err, other.want) {
				t.Errorf("%v wrongly matches %v", c.err, other.want)
			}
		}
	}
	if KindOf(errors.New("plain")) != KindNone {
		t.Errorf("plain error got a harness kind")
	}
	if KindOf(fmt.Errorf("wrap: %w", Workload(errors.New("w")))) != KindWorkload {
		t.Errorf("wrapped workload error lost its kind")
	}
}

func TestClassifyDeadlineSensitive(t *testing.T) {
	live := context.Background()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	wrapped := fmt.Errorf("stage 3: %w", context.Canceled)

	cases := []struct {
		name        string
		parent      context.Context
		hadDeadline bool
		err         error
		want        Kind
	}{
		// The regression: an evaluator returning its own
		// context.Canceled with no task deadline and a live parent
		// must NOT be reported as a harness timeout.
		{"evaluator canceled, no deadline", live, false, context.Canceled, KindNone},
		{"evaluator canceled wrapped, no deadline", live, false, wrapped, KindNone},
		// With a deadline the task context is the only cancel
		// source, so Canceled means the deadline path fired.
		{"canceled under deadline", live, true, context.Canceled, KindTimeout},
		{"deadline exceeded", live, true, context.DeadlineExceeded, KindTimeout},
		// DeadlineExceeded without a harness deadline is still a
		// timeout: the evaluator ran out of its own clock.
		{"deadline exceeded, no harness deadline", live, false, context.DeadlineExceeded, KindTimeout},
		// A dead parent wins over everything: whole-run cancellation.
		{"parent canceled", dead, true, context.Canceled, KindCanceled},
		{"parent canceled, plain error", dead, false, errors.New("x"), KindCanceled},
		// Plain errors pass through untouched.
		{"plain error", live, true, errors.New("x"), KindNone},
		{"nil error", live, true, nil, KindNone},
		// Already-classified errors keep their kind.
		{"pre-classified panic", live, true, &Error{Kind: KindPanic}, KindPanic},
	}
	for _, c := range cases {
		got := classify(c.parent, c.hadDeadline, c.err)
		if c.err == nil {
			if got != nil {
				t.Errorf("%s: classify(nil) = %v", c.name, got)
			}
			continue
		}
		if KindOf(got) != c.want {
			t.Errorf("%s: kind = %v, want %v", c.name, KindOf(got), c.want)
		}
		if c.want == KindNone && !errors.Is(got, c.err) {
			t.Errorf("%s: unclassified error was rewritten: %v", c.name, got)
		}
	}
}

func TestEvaluatorCanceledNoTimeoutNotATimeout(t *testing.T) {
	// End-to-end version of the regression: no Task.Timeout, live
	// parent, evaluator returns context.Canceled from its own
	// sub-context. The result must not claim a harness timeout.
	res := Run(context.Background(), []Task{{
		Name: "self-cancel",
		Run: func(ctx context.Context, _ int) (any, error) {
			sub, cancel := context.WithCancel(ctx)
			cancel()
			return nil, sub.Err()
		},
	}}, Options{})
	if err := res[0].Err; KindOf(err) == KindTimeout {
		t.Fatalf("evaluator-owned cancellation reported as timeout: %v", err)
	}
}
