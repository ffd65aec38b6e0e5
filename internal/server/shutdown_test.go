package server

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestGracefulShutdownDrainsInflightRejectsQueued is the shutdown
// contract: jobs already running finish and report done, jobs still
// queued settle with a clean rejection, and new submissions bounce.
func TestGracefulShutdownDrainsInflightRejectsQueued(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 2, MaxWait: time.Hour})
	s := New(cfg)

	inflight, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job in flight", func() bool { return s.Stats().InFlight == 1 })
	queued, _, err := s.submit(req(2))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job queued", func() bool { return s.Stats().QueueDepth == 1 })

	done := make(chan struct{})
	go func() {
		s.Shutdown(context.Background())
		close(done)
	}()
	waitFor(t, "draining", func() bool { return s.draining.Load() })
	if _, _, err := s.submit(req(3)); !errors.Is(err, errDraining) {
		t.Fatalf("submit while draining: err = %v, want errDraining", err)
	}
	close(gate) // let the in-flight evaluation finish
	<-done

	fin, ok := s.Job(inflight.ID)
	if !ok || fin.State != StateDone || fin.Result == nil {
		t.Fatalf("in-flight job did not complete through the drain: %+v", fin)
	}
	rej, ok := s.Job(queued.ID)
	if !ok || rej.State != StateFailed {
		t.Fatalf("queued job not rejected: %+v", rej)
	}
	if !strings.Contains(rej.Error, "shutting down") {
		t.Fatalf("queued job rejection message = %q, want a shutdown rejection", rej.Error)
	}
	stats := s.Stats()
	if stats.Completed != 1 || stats.Rejected != 1 {
		t.Fatalf("completed/rejected = %d/%d, want 1/1", stats.Completed, stats.Rejected)
	}
}

// TestForcedShutdownCancelsInflight: when the drain deadline expires,
// in-flight evaluators are canceled through the harness context paths
// and still settle (as failed), never hang.
func TestForcedShutdownCancelsInflight(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 2, MaxWait: time.Hour})
	s := New(cfg)
	defer close(gate)

	st, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job in flight", func() bool { return s.Stats().InFlight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown err = %v, want DeadlineExceeded", err)
	}
	fin, ok := s.Job(st.ID)
	if !ok || fin.State != StateFailed {
		t.Fatalf("force-canceled job settled as %+v", fin)
	}
}

// TestShutdownLeaksNoGoroutines: pool workers and completion watchers
// all exit; repeated create/use/shutdown cycles return the process to
// its baseline goroutine count.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		cfg, gate := gatedConfig(Config{Workers: 4, Queue: 8, MaxWait: time.Hour})
		s := New(cfg)
		close(gate)
		for i := 0; i < 6; i++ {
			st, _, err := s.submit(req(int64(i % 3)))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.wait(context.Background(), st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "goroutines to return to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
}

// TestShutdownIdempotent: a second Shutdown returns immediately.
func TestShutdownIdempotent(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 1})
	s := New(cfg)
	close(gate)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownRacesSubmissions: a submission racing Shutdown is either
// refused as draining or admitted before Shutdown waits on the job
// watchers — the sync.WaitGroup misuse the race detector reports — so
// every job a submit handed out is settled once Shutdown returns. A
// -race stress test; one submitter, so each job's watcher tends to be
// the only one, which is when the misuse shows.
func TestShutdownRacesSubmissions(t *testing.T) {
	for round := 0; round < 100; round++ {
		cfg, gate := gatedConfig(Config{Workers: 2, Queue: 64, MaxWait: time.Hour})
		close(gate)
		s := New(cfg)
		var ids []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			for seed := int64(0); ; seed++ {
				st, _, err := s.submit(req(seed))
				if errors.Is(err, errDraining) {
					return
				}
				if err == nil {
					ids = append(ids, st.ID)
				}
			}
		}()
		waitFor(t, "submissions under way", func() bool { return s.Stats().Admitted > 0 })
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		<-done
		for _, id := range ids {
			// A job no longer retained was evicted settled.
			if st, ok := s.Job(id); ok && st.State != StateDone && st.State != StateFailed {
				t.Fatalf("round %d: job %s unsettled after Shutdown: %+v", round, id, st)
			}
		}
	}
}
