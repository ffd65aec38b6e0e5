package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachErr(t *testing.T) {
	bg := context.Background()

	t.Run("lowest-index error wins", func(t *testing.T) {
		// Item 7 fails at once, item 3 only after 7 has: whichever
		// worker reports first, the answer is item 3's.
		for trial := 0; trial < 200; trial++ {
			sevenFailed := make(chan struct{})
			err := ForEachErr(bg, 8, 8, func(i int) error {
				switch i {
				case 3:
					<-sevenFailed
					return fmt.Errorf("item %d", i)
				case 7:
					defer close(sevenFailed)
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "item 3" {
				t.Fatalf("trial %d: err = %v, want item 3's", trial, err)
			}
		}
	})

	t.Run("a failure stops dispatch", func(t *testing.T) {
		const n = 1000
		var started atomic.Int64
		boom := errors.New("boom")
		err := ForEachErr(bg, 4, n, func(i int) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		// Each worker may have one item in hand and take one more before
		// it sees the failure; nothing close to n.
		if s := started.Load(); s > 100 {
			t.Fatalf("%d of %d items started after item 0 failed", s, n)
		}
	})

	t.Run("a cancellation stops dispatch", func(t *testing.T) {
		const n = 1000
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		var started atomic.Int64
		err := ForEachErr(ctx, 4, n, func(i int) error {
			started.Add(1)
			if i == 0 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if s := started.Load(); s > 100 {
			t.Fatalf("%d of %d items started after the cancellation", s, n)
		}
	})

	t.Run("parallel <= 1 runs inline in order", func(t *testing.T) {
		for _, parallel := range []int{1, 0, -3} {
			var order []int // no lock: the race detector is the check that it is inline
			boom := errors.New("boom")
			err := ForEachErr(bg, parallel, 6, func(i int) error {
				order = append(order, i)
				if i == 4 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) || fmt.Sprint(order) != "[0 1 2 3 4]" {
				t.Fatalf("parallel %d: err %v after items %v, want boom after [0 1 2 3 4]", parallel, err, order)
			}
		}
	})

	t.Run("n == 0 returns ctx.Err", func(t *testing.T) {
		fn := func(int) error { t.Error("fn called with nothing to do"); return nil }
		if err := ForEachErr(bg, 4, 0, fn); err != nil {
			t.Fatalf("live context: %v", err)
		}
		ctx, cancel := context.WithCancel(bg)
		cancel()
		if err := ForEachErr(ctx, 4, 0, fn); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled context: %v, want context.Canceled", err)
		}
	})

	t.Run("ForEach is the same loop", func(t *testing.T) {
		var sum atomic.Int64
		if err := ForEach(bg, 3, 100, func(i int) { sum.Add(int64(i)) }); err != nil || sum.Load() != 4950 {
			t.Fatalf("err %v, sum %d, want nil and 4950", err, sum.Load())
		}
	})
}
