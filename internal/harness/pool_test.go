package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPoolRunsSubmittedTasks(t *testing.T) {
	p := NewPool(Options{Workers: 4}, 16)
	defer p.Close()
	var chans []<-chan Result
	for i := 0; i < 10; i++ {
		i := i
		ch, err := p.Submit(context.Background(), Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context, attempt int) (any, error) {
				return i * i, nil
			},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("task %d failed: %v", i, res.Err)
		}
		if res.Value.(int) != i*i {
			t.Fatalf("task %d value = %v, want %d", i, res.Value, i*i)
		}
		if res.Attempts != 1 {
			t.Fatalf("task %d attempts = %d, want 1", i, res.Attempts)
		}
	}
}

func TestPoolRetriesRetryableFailures(t *testing.T) {
	p := NewPool(Options{Workers: 1, Retries: 2, Backoff: time.Microsecond}, 1)
	defer p.Close()
	calls := 0
	ch, err := p.Submit(context.Background(), Task{
		Name: "flaky",
		Run: func(ctx context.Context, attempt int) (any, error) {
			calls++
			if attempt < 2 {
				return nil, Workloadf("flaky attempt %d", attempt)
			}
			return "ok", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil || res.Value != "ok" {
		t.Fatalf("result = %+v, want ok", res)
	}
	if res.Attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d (calls %d), want 3", res.Attempts, calls)
	}
}

func TestPoolQueueFullSheds(t *testing.T) {
	p := NewPool(Options{Workers: 1}, 1)
	defer p.Close()
	gate := make(chan struct{})
	block := Task{Name: "block", Run: func(ctx context.Context, attempt int) (any, error) {
		<-gate
		return nil, nil
	}}
	// First submit occupies the worker (eventually), second the queue
	// slot; with both held a third must shed.
	ch1, err := p.Submit(context.Background(), block)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.InFlight() == 1 })
	ch2, err := p.Submit(context.Background(), block)
	if err != nil {
		t.Fatal(err)
	}
	if p.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1", p.QueueDepth())
	}
	if _, err := p.Submit(context.Background(), block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if got, want := p.InFlight(), p.Workers(); got != want {
		t.Fatalf("in flight = %d, want every worker (%d)", got, want)
	}
	close(gate)
	if res := <-ch1; res.Err != nil {
		t.Fatalf("blocked task 1 failed: %v", res.Err)
	}
	if res := <-ch2; res.Err != nil {
		t.Fatalf("blocked task 2 failed: %v", res.Err)
	}
}

func TestPoolCloseDrainsInflightRejectsQueued(t *testing.T) {
	p := NewPool(Options{Workers: 1}, 2)
	gate := make(chan struct{})
	inflight, err := p.Submit(context.Background(), Task{Name: "inflight",
		Run: func(ctx context.Context, attempt int) (any, error) {
			<-gate
			return "done", nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.InFlight() == 1 })
	var queued []<-chan Result
	for i := 0; i < 2; i++ {
		ch, err := p.Submit(context.Background(), Task{Name: "queued",
			Run: func(ctx context.Context, attempt int) (any, error) {
				return "ran", nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, ch)
	}

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close stops admission synchronously before draining; once new
	// submits see ErrPoolClosed the queued tasks are fenced.
	waitFor(t, func() bool {
		_, err := p.Submit(context.Background(), Task{Name: "late"})
		return errors.Is(err, ErrPoolClosed)
	})
	close(gate)

	if res := <-inflight; res.Err != nil || res.Value != "done" {
		t.Fatalf("in-flight task did not complete cleanly: %+v", res)
	}
	for i, ch := range queued {
		res := <-ch
		if !errors.Is(res.Err, ErrPoolClosed) {
			t.Fatalf("queued task %d err = %v, want ErrPoolClosed", i, res.Err)
		}
		if KindOf(res.Err) != KindCanceled {
			t.Fatalf("queued task %d kind = %v, want KindCanceled", i, KindOf(res.Err))
		}
	}
	<-closed
	if p.QueueDepth() != 0 || p.InFlight() != 0 {
		t.Fatalf("pool not drained: depth=%d inflight=%d", p.QueueDepth(), p.InFlight())
	}
}

func TestPoolSubmitCtxCancelWhileQueued(t *testing.T) {
	p := NewPool(Options{Workers: 1}, 1)
	defer p.Close()
	gate := make(chan struct{})
	defer close(gate)
	if _, err := p.Submit(context.Background(), Task{Name: "block",
		Run: func(ctx context.Context, attempt int) (any, error) {
			<-gate
			return nil, nil
		}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.InFlight() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := p.Submit(ctx, Task{Name: "queued",
		Run: func(ctx context.Context, attempt int) (any, error) {
			return "ran", nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	gate <- struct{}{} // release the blocker; worker then picks up the canceled task
	res := <-ch
	if KindOf(res.Err) != KindCanceled {
		t.Fatalf("canceled-while-queued kind = %v (err %v), want KindCanceled", KindOf(res.Err), res.Err)
	}
}

// TestPoolRecordsQueueWait: while the registry records, every task a
// worker picks up observes how long it sat in the queue, however it
// was submitted.
func TestPoolRecordsQueueWait(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	observed := func() int64 { return obs.Default().Snapshot().Histograms["harness.queue_wait_ns"].Count }
	before := observed()
	p := NewPool(Options{Workers: 1}, 3)
	if p.Workers() != 1 {
		t.Fatalf("workers = %d, want 1", p.Workers())
	}
	var chans []<-chan Result
	for i := 0; i < 3; i++ {
		ch, err := p.Submit(context.Background(), Task{Name: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context, attempt int) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		<-ch
	}
	p.Close()
	if got := observed() - before; got != 3 {
		t.Fatalf("queue-wait observations = %d, want 3", got)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
