package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dfm"
	"repro/internal/harness"
	"repro/internal/tech"
)

// gatedConfig returns a config whose tasks block on the returned
// channel — deterministic occupancy for admission and shutdown tests.
// Tasks honor ctx while blocked, so forced shutdown can cancel them.
func gatedConfig(cfg Config) (Config, chan struct{}) {
	gate := make(chan struct{})
	cfg.TaskFactory = func(req JobRequest) (harness.Task, error) {
		if _, err := dfm.TechniqueTask(tech.N45(), req.Technique, req.Seed, dfm.DefaultBlock()); err != nil {
			return harness.Task{}, err
		}
		return harness.Task{Name: req.Technique, Run: func(ctx context.Context, _ int) (any, error) {
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

// settled waits for j to settle and returns its answer.
func settled(j *job) JobStatus {
	<-j.done
	return j.status()
}

func TestSubmitEvaluatesAndCaches(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	s := New(cfg)
	defer s.Shutdown(context.Background())
	close(gate) // nothing blocks in this test

	j, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	fin := settled(j)
	if fin.Cached || fin.Deduped {
		t.Fatalf("first submit marked cached/deduped: %+v", fin)
	}
	if fin.State != StateDone || fin.Result == nil {
		t.Fatalf("job did not settle done: %+v", fin)
	}
	if fin.Result.Verdict != "HIT" {
		t.Fatalf("verdict = %q, want HIT", fin.Result.Verdict)
	}

	// Identical request: served from the content-addressed cache,
	// already done at submit time.
	j2, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.done:
	default:
		t.Fatal("cache hit not settled at submit")
	}
	if st2 := j2.status(); !st2.Cached || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("second submit not a cache hit: %+v", st2)
	}
	if j2.key != j.key {
		t.Fatalf("same request produced different keys: %s vs %s", j.key, j2.key)
	}

	// Different seed: different content, fresh evaluation.
	j3, _, err := s.submit(req(2))
	if err != nil {
		t.Fatal(err)
	}
	if j3.cached || j3.key == j.key {
		t.Fatalf("distinct request aliased: %+v", settled(j3))
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
	var followers []*job
	for i := 0; i < 3; i++ {
		j, _, err := s.submit(req(7))
		if err != nil {
			t.Fatal(err)
		}
		if !j.deduped {
			t.Fatalf("duplicate in-flight submit %d not deduped", i)
		}
		followers = append(followers, j)
	}
	close(gate)
	if fin := settled(lead); fin.State != StateDone {
		t.Fatalf("leader: %+v", fin)
	}
	for i, f := range followers {
		if ff := settled(f); ff.State != StateDone || ff.Result == nil {
			t.Fatalf("follower %d did not settle with result: %+v", i, ff)
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

// TestZeroMaxWaitShedsOnlyOnFullQueue: MaxWait 0 turns estimate-based
// shedding off however slow recent evaluations were; only a full queue
// sheds.
func TestZeroMaxWaitShedsOnlyOnFullQueue(t *testing.T) {
	cfg, gate := gatedConfig(Config{Workers: 1, Queue: 4, MaxWait: 0})
	s := New(cfg)
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()

	s.updateEWMA(time.Hour)
	if _, _, err := s.submit(req(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job in flight", func() bool { return s.Stats().InFlight == 1 })
	if _, _, err := s.submit(req(2)); err != nil {
		t.Fatalf("second job behind a 1h estimate with MaxWait 0: err = %v, want admitted", err)
	}
}

func TestFailedEvaluationNotCached(t *testing.T) {
	boom := errors.New("workload exploded")
	fail := true
	cfg := Config{Workers: 1, Queue: 4, MaxWait: time.Hour}
	cfg.TaskFactory = func(req JobRequest) (harness.Task, error) {
		return harness.Task{Name: req.Technique, Run: func(ctx context.Context, _ int) (any, error) {
			if fail {
				return nil, boom
			}
			return dfm.Outcome{Technique: req.Technique}, nil
		}}, nil
	}
	s := New(cfg)
	defer s.Shutdown(context.Background())

	j, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	if fin := settled(j); fin.State != StateFailed || fin.Error == "" {
		t.Fatalf("failing job settled as %+v", fin)
	}
	// The failure must not be content-addressed: the next identical
	// request re-evaluates (and now succeeds).
	fail = false
	j2, _, err := s.submit(req(1))
	if err != nil {
		t.Fatal(err)
	}
	fin2 := settled(j2)
	if fin2.Cached {
		t.Fatalf("failed outcome was served from cache: %+v", fin2)
	}
	if fin2.State != StateDone {
		t.Fatalf("retry after failure settled as %+v", fin2)
	}
	stats := s.Stats()
	if stats.Failed != 1 || stats.Completed != 1 {
		t.Fatalf("failed/completed = %d/%d, want 1/1", stats.Failed, stats.Completed)
	}
}

// An unknown technique is refused at submit; a body naming a process
// node is refused at decode, since an evaluation runs on N45 only.
func TestUnknownTechniqueAndTechRejected(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1})
	defer s.Shutdown(context.Background())
	if _, _, err := s.submit(JobRequest{Technique: "no-such"}); !errors.Is(err, dfm.ErrUnknownTechnique) {
		t.Fatalf("unknown technique err = %v", err)
	}
	if got := s.Stats().Admitted; got != 0 {
		t.Fatalf("admitted = %d, want 0", got)
	}
	if _, err := decodeJobRequest([]byte(`{"technique":"sraf","tech":"N45R","seed":1}`)); err == nil {
		t.Fatal("a body naming a tech decoded")
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
				j, _, err := s.submit(req(seed))
				if err != nil {
					t.Errorf("client %d submit %d: %v", c, i, err)
					return
				}
				results[c] = append(results[c], settled(j))
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
				t.Fatalf("job %s settled as %+v", fin.Key, fin)
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
	j, _, err := s.submit(JobRequest{Technique: "sraf", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fin := settled(j)
	if fin.State != StateDone || fin.Result == nil {
		t.Fatalf("sraf evaluation settled as %+v (error %q)", fin, fin.Error)
	}
	if fin.Result.Technique != "sraf" || len(fin.Result.Metrics) == 0 {
		t.Fatalf("implausible outcome: %+v", fin.Result)
	}
	// Same request again: cache hit with the identical outcome.
	j2, _, err := s.submit(JobRequest{Technique: "sraf", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := settled(j2); !st2.Cached || st2.Result == nil || st2.Result.Verdict != fin.Result.Verdict {
		t.Fatalf("cached replay diverged: %+v vs %+v", st2.Result, fin.Result)
	}
}
