package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dfm"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/tech"
)

// gatedConfig returns a config whose tasks block on the returned
// channel — deterministic occupancy for admission and shutdown tests.
// Tasks honor ctx while blocked, so forced shutdown can cancel them.
func gatedConfig(cfg Config) (Config, chan struct{}) {
	gate := make(chan struct{})
	cfg.TaskFactory = func(req JobRequest, t *tech.Tech, base layout.BlockOpts) (harness.Task, error) {
		if _, err := dfm.TechniqueTask(t, req.Technique, req.Seed, base); err != nil {
			return harness.Task{}, err
		}
		return harness.Task{Name: req.Technique, Run: func(ctx context.Context, attempt int) (any, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			o := dfm.Outcome{
				Technique: req.Technique,
				Metrics: []dfm.Metric{{
					Name: "m", Before: 1, After: 2, Unit: "x",
					HigherIsBetter: true, Primary: true,
				}},
			}
			o.Judge(0.05, 0.10)
			return o, nil
		}}, nil
	}
	return cfg, gate
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func req(seed int64) JobRequest {
	return JobRequest{Technique: "sraf", Seed: seed}
}

func TestSubmitEvaluatesAndCaches(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	s := New(cfg)
	defer s.Shutdown(context.Background())
	close(gate) // nothing blocks in this test

	st, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached || st.Deduped {
		t.Fatalf("first submit marked cached/deduped: %+v", st)
	}
	fin, ok, err := s.wait(context.Background(), st.ID)
	if err != nil || !ok {
		t.Fatalf("wait: ok=%v err=%v", ok, err)
	}
	if fin.State != StateDone || fin.Result == nil {
		t.Fatalf("job did not settle done: %+v", fin)
	}
	if fin.Result.Verdict != "HIT" {
		t.Fatalf("verdict = %q, want HIT", fin.Result.Verdict)
	}

	// Identical request: served from the content-addressed cache,
	// already done at submit time.
	st2, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("second submit not a cache hit: %+v", st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("same request produced different keys: %s vs %s", st.Key, st2.Key)
	}

	// Different seed: different content, fresh evaluation.
	st3, _, err := s.submit(req(2))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached || st3.Key == st.Key {
		t.Fatalf("distinct request aliased: %+v", st3)
	}

	stats := s.Stats()
	if stats.CacheHits != 1 || stats.CacheMisses != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", stats.CacheHits, stats.CacheMisses)
	}
}

func TestSingleflightCollapsesConcurrentDuplicates(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 2, Queue: 8, MaxWait: time.Hour})
	s := New(cfg)
	defer s.Shutdown(context.Background())

	lead, _, err := s.submit(req(7))
	if err != nil {
		t.Fatal(err)
	}
	var followers []JobStatus
	for i := 0; i < 3; i++ {
		st, _, err := s.submit(req(7))
		if err != nil {
			t.Fatal(err)
		}
		if !st.Deduped {
			t.Fatalf("duplicate in-flight submit %d not deduped: %+v", i, st)
		}
		followers = append(followers, st)
	}
	close(gate)
	fin, _, err := s.wait(context.Background(), lead.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("leader: %+v err=%v", fin, err)
	}
	for _, f := range followers {
		ff, ok, err := s.wait(context.Background(), f.ID)
		if err != nil || !ok || ff.State != StateDone || ff.Result == nil {
			t.Fatalf("follower %s did not settle with result: %+v err=%v", f.ID, ff, err)
		}
	}
	stats := s.Stats()
	if stats.Deduped != 3 {
		t.Fatalf("deduped = %d, want 3", stats.Deduped)
	}
	if stats.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one evaluation for four submits)", stats.CacheMisses)
	}
	if stats.Completed != 4 {
		t.Fatalf("completed = %d, want 4", stats.Completed)
	}
}

func TestFullQueueShedsWith429Signal(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 1, MaxWait: 0})
	s := New(cfg)
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()

	if _, _, err := s.submit(req(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job in flight", func() bool { return s.Stats().InFlight == 1 })
	if _, _, err := s.submit(req(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second job queued", func() bool { return s.Stats().QueueDepth == 1 })
	_, _, err := s.submit(req(3))
	if !errors.Is(err, errOverloaded) {
		t.Fatalf("submit into full queue: err = %v, want errOverloaded", err)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestEstimateBasedSheddingUsesLiveSignals(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 64, MaxWait: time.Millisecond})
	s := New(cfg)
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()

	// Teach the admission controller that evaluations are slow, then
	// occupy the worker: the estimated wait for a newcomer exceeds
	// MaxWait long before the 64-slot queue fills.
	s.updateEWMA(10 * time.Second)
	if _, _, err := s.submit(req(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job in flight", func() bool { return s.Stats().InFlight == 1 })
	_, retryAfter, err := s.submit(req(2))
	if !errors.Is(err, errOverloaded) {
		t.Fatalf("err = %v, want errOverloaded from estimate-based shedding", err)
	}
	if retryAfter < 5*time.Second {
		t.Fatalf("retry-after hint = %v, want ~10s (EWMA-derived)", retryAfter)
	}
	if s.Stats().QueueDepth != 0 {
		t.Fatalf("queue depth = %d, want 0 (shed before enqueue)", s.Stats().QueueDepth)
	}
}

func TestFailedEvaluationNotCached(t *testing.T) {
	boom := errors.New("workload exploded")
	fail := true
	cfg := Config{Workers: 1, Queue: 4, MaxWait: time.Hour, Retries: -1}
	cfg.TaskFactory = func(req JobRequest, t *tech.Tech, base layout.BlockOpts) (harness.Task, error) {
		return harness.Task{Name: req.Technique, Run: func(ctx context.Context, attempt int) (any, error) {
			if fail {
				return nil, boom
			}
			return dfm.Outcome{Technique: req.Technique}, nil
		}}, nil
	}
	s := New(cfg)
	defer s.Shutdown(context.Background())

	st, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	fin, _, _ := s.wait(context.Background(), st.ID)
	if fin.State != StateFailed || fin.Error == "" {
		t.Fatalf("failing job settled as %+v", fin)
	}
	// The failure must not be content-addressed: the next identical
	// request re-evaluates (and now succeeds).
	fail = false
	st2, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatalf("failed outcome was served from cache: %+v", st2)
	}
	fin2, _, _ := s.wait(context.Background(), st2.ID)
	if fin2.State != StateDone {
		t.Fatalf("retry after failure settled as %+v", fin2)
	}
	stats := s.Stats()
	if stats.Failed != 1 || stats.Completed != 1 {
		t.Fatalf("failed/completed = %d/%d, want 1/1", stats.Failed, stats.Completed)
	}
}

func TestUnknownTechniqueAndTechRejected(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1})
	defer s.Shutdown(context.Background())
	if _, _, err := s.submit(JobRequest{Technique: "no-such"}); !errors.Is(err, dfm.ErrUnknownTechnique) {
		t.Fatalf("unknown technique err = %v", err)
	}
	if _, _, err := s.submit(JobRequest{Technique: "sraf", Tech: "N7"}); err == nil {
		t.Fatal("unknown tech accepted")
	}
	if _, _, err := s.submit(JobRequest{Technique: "sraf", Block: &BlockSpec{Rows: -1}}); err == nil {
		t.Fatal("invalid block accepted")
	}
	if got := s.Stats().Admitted; got != 0 {
		t.Fatalf("admitted = %d, want 0", got)
	}
}

func TestJobRetentionEvictsOldestSettled(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	s := New(cfg)
	defer s.Shutdown(context.Background())
	close(gate)
	var ids []string
	for i := 0; i < retainJobs+2; i++ {
		st, _, err := s.submit(req(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest settled job survived past the retention cap")
	}
	if _, ok := s.Job(ids[2]); !ok {
		t.Fatal("a settled job inside the retention cap was evicted")
	}
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Fatal("newest job was evicted")
	}
}

// A request's timeoutMs is clamped to maxTimeout before it becomes a
// Duration: 9223372036855 ms wraps negative and 1<<62 ms wraps to zero,
// and the harness runs a task whose timeout is not positive with no
// deadline at all.
func TestJobTimeoutClampsBeforeConverting(t *testing.T) {
	s := New(Config{DefaultTimeout: time.Minute})
	defer s.Shutdown(context.Background())
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{
		{1, time.Millisecond},
		{1000, time.Second},
		{int64(maxTimeout/time.Millisecond) + 1, maxTimeout},
		{9223372036855, maxTimeout},
		{1 << 62, maxTimeout},
		{-1, time.Minute},
	} {
		if got := s.jobTimeout(c.ms); got != c.want {
			t.Errorf("timeoutMs %d: budget %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestConcurrentOverlappingClients is the acceptance scenario: many
// clients submit overlapping workloads concurrently; every client
// gets a correct, consistent result while duplicate layouts cost one
// evaluation (counters prove it).
func TestConcurrentOverlappingClients(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 4, Queue: 256, MaxWait: time.Hour})
	s := New(cfg)
	defer s.Shutdown(context.Background())
	close(gate)

	const clients, perClient, uniqueSeeds = 8, 10, 4
	results := make([][]JobStatus, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := int64((c + i) % uniqueSeeds) // overlapping across clients
				st, _, err := s.submit(req(seed))
				if err != nil {
					t.Errorf("client %d submit %d: %v", c, i, err)
					return
				}
				fin, ok, err := s.wait(context.Background(), st.ID)
				if err != nil || !ok {
					t.Errorf("client %d wait %d: ok=%v err=%v", c, i, ok, err)
					return
				}
				results[c] = append(results[c], fin)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Correctness: every job done, and all results for the same key
	// identical.
	byKey := map[string]*dfm.OutcomeView{}
	total := 0
	for c := range results {
		for _, fin := range results[c] {
			total++
			if fin.State != StateDone || fin.Result == nil {
				t.Fatalf("job %s settled as %+v", fin.ID, fin)
			}
			if prev, ok := byKey[fin.Key]; ok {
				if prev.Verdict != fin.Result.Verdict || len(prev.Metrics) != len(fin.Result.Metrics) {
					t.Fatalf("key %s produced divergent results", fin.Key)
				}
			} else {
				byKey[fin.Key] = fin.Result
			}
		}
	}
	if total != clients*perClient {
		t.Fatalf("settled %d jobs, want %d", total, clients*perClient)
	}
	if len(byKey) != uniqueSeeds {
		t.Fatalf("distinct keys = %d, want %d", len(byKey), uniqueSeeds)
	}

	stats := s.Stats()
	// Duplicate layouts evaluate once: only the unique seeds miss.
	if stats.CacheMisses != uniqueSeeds {
		t.Fatalf("cache misses = %d, want %d (one evaluation per unique layout)",
			stats.CacheMisses, uniqueSeeds)
	}
	if stats.CacheHits+stats.Deduped != int64(total-uniqueSeeds) {
		t.Fatalf("hits %d + deduped %d != %d duplicates",
			stats.CacheHits, stats.Deduped, total-uniqueSeeds)
	}
	if stats.Completed != int64(total) {
		t.Fatalf("completed = %d, want %d", stats.Completed, total)
	}
}

// TestEndToEndRealEvaluator runs the genuine dfm evaluator path (no
// injected tasks) through the service once, proving the wiring from
// request to technique registry to harness to outcome view.
func TestEndToEndRealEvaluator(t *testing.T) {
	s := New(Config{Workers: 2, Queue: 8, MaxWait: time.Hour})
	defer s.Shutdown(context.Background())
	st, _, err := s.submit(JobRequest{Technique: "sraf", Tech: "N45", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fin, _, err := s.wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Result == nil {
		t.Fatalf("sraf evaluation settled as %+v (error %q)", fin, fin.Error)
	}
	if fin.Result.Technique != "sraf" || len(fin.Result.Metrics) == 0 {
		t.Fatalf("implausible outcome: %+v", fin.Result)
	}
	// Same request again: cache hit with the identical outcome.
	st2, _, err := s.submit(JobRequest{Technique: "sraf", Tech: "N45", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Result == nil || st2.Result.Verdict != fin.Result.Verdict {
		t.Fatalf("cached replay diverged: %+v vs %+v", st2.Result, fin.Result)
	}
}
