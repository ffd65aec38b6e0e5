package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/server"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// The seeded chaos test's fixed shape: a 3-node fleet, seeds 1…16 of
// which the first is the control, and an R6 stream of technique jobs
// sized like a short dfmload run.
const (
	chaosNodes    = 3
	controlSeed   = 1
	chaosSeeds    = 16
	streamJobs    = 24
	streamUnique  = 6
	streamDup     = 0.5
	streamRetries = 3
)

// kill hard-kills node i the way a crashed process dies: the listener
// and every live connection drop with a reset, then the evaluation pool
// is reaped so the dead node leaks nothing.
func (cl *Cluster) kill(i int) {
	n := cl.Nodes[i]
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
}

// schedule is one seed's chaos, keyed on submission ordinals rather than
// on time: node victim dies as the k-th submission goes out and comes
// back, on its slot, as the m-th does (never, when m is 0). k is 0 on
// the control seed, which kills nothing. Every tile unit and technique
// job of the seed passes through at, so the schedule also knows the
// distinct content addresses the fleet was asked for.
type schedule struct {
	cl     *Cluster
	logf   func(string, ...any)
	victim int
	k, m   int64

	n  atomic.Int64
	mu sync.Mutex
	// What has fired, the counters of the instance a restart replaced
	// (which BackendSums no longer sees), and the keys submitted, all
	// under mu.
	killed, restarted bool
	restartErr        error
	retired           server.Stats
	keys              map[string]bool
}

// drawSchedule draws seed's victim, kill ordinal k in [1, total] and
// restart ordinal m in (k, total], or m = 0 for a node that stays dead.
func drawSchedule(seed, total int64) (victim int, k, m int64) {
	if seed == controlSeed {
		return 0, 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	victim = rng.Intn(chaosNodes)
	k = 1 + rng.Int63n(total)
	if k < total && rng.Intn(4) != 0 {
		m = k + 1 + rng.Int63n(total-k)
	}
	return victim, k, m
}

// at counts one submission of the unit keyed key and fires what the
// schedule holds for its ordinal before the submission goes out.
func (s *schedule) at(key string) {
	i := s.n.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[key] = true
	switch {
	case s.k > 0 && !s.killed && i >= s.k:
		s.killed = true
		s.cl.kill(s.victim)
		s.logf("chaos: n%d killed at submission %d", s.victim, i)
	case s.killed && !s.restarted && s.m > 0 && i >= s.m:
		s.restarted = true
		s.retired = s.cl.Nodes[s.victim].srv.Stats()
		s.restartErr = s.cl.Nodes[s.victim].start()
		s.logf("chaos: n%d restarted at submission %d (err %v)", s.victim, i, s.restartErr)
	}
}

// chaosTiles sends every tile unit through the schedule.
type chaosTiles struct {
	s     *schedule
	inner tiling.TileClient
}

func (c chaosTiles) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	key, err := server.KeyForRequest(server.JobRequest{Kind: server.KindTile, Tile: req})
	if err != nil {
		return nil, tiling.TileServed{}, err
	}
	c.s.at(key)
	return c.inner.EvalTile(ctx, req)
}

// chip is one generated floorplan and its single-process evaluation.
type chip struct {
	top   *layout.Cell
	local *tiling.Result
}

// units is how many units DistEvaluate sends with no local cache: every
// tile but the empty ones.
func (c chip) units() int64 { return int64(c.local.Stats.Tiles - c.local.Stats.EmptyTiles) }

// chaosOpts cuts a 3-slot chip into 36 units, four to a slot, so a
// macro placed in both chips is the same four units in each.
var chaosOpts = tiling.Opts{Tile: 12000, Halo: 2000, Workers: 4,
	DRC: true, Density: true, DensityWindow: 3000}

// TestSeededChaos is R6 and R8 as a test: for each seed a fresh 3-node
// fleet runs both shapes under that seed's kill/restart schedule.
//
//   - R8: two chips from consecutive seeds, which share the macro
//     library, fanned tile by tile across the fleet with no local cache.
//     Each must stitch bit-identically to its single-process evaluation
//     (a lost or doubly counted tile breaks that too), and the second
//     must be answered in part from what the first left in node caches.
//   - R6: a dfmload-drawn stream of technique jobs with duplicates,
//     through client.EvalWithRetry: every job done, at least one a hit.
//
// Every seed ends with no request failed at the router by the fleet
// (Stats.Failed; a 4xx or a caller's hang-up counts apart). On the control
// seed, which kills nothing, each distinct unit is computed exactly once
// fleet-wide; under chaos, at least once.
func TestSeededChaos(t *testing.T) {
	n := chaosSeeds
	if testing.Short() {
		n = 2
	}
	chips := map[int64]chip{}
	chipFor := func(t *testing.T, seed int64) chip {
		if c, ok := chips[seed]; ok {
			return c
		}
		l, _, err := layout.GenerateChip(tech.N45(), layout.ChipOpts{Seed: seed, Slots: 3, Defects: 3})
		if err != nil {
			t.Fatalf("GenerateChip(%d): %v", seed, err)
		}
		local, err := tiling.Evaluate(context.Background(), tech.N45(), tiling.NewExtractor(l.Top), chaosOpts)
		if err != nil {
			t.Fatalf("local evaluate chip %d: %v", seed, err)
		}
		if len(local.Violations) == 0 {
			t.Fatalf("chip %d has no violations; the differential is vacuous", seed)
		}
		chips[seed] = chip{l.Top, local}
		return chips[seed]
	}
	for seed := int64(controlSeed); seed < controlSeed+int64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("reproduce: go test -run 'TestSeededChaos/^seed=%d$' ./internal/fleet", seed)
				}
			})
			chaosSeed(t, seed, [2]chip{chipFor(t, seed), chipFor(t, seed+1)})
		})
	}
}

// chaosSeed runs both shapes on a fresh fleet under seed's schedule.
func chaosSeed(t *testing.T, seed int64, chips [2]chip) {
	jobs := Stream(seed, streamJobs, streamDup, streamUnique, []string{"sraf", "redundant-via"})
	total := chips[0].units() + chips[1].units() + int64(len(jobs))
	cl, err := Start(Options{Nodes: chaosNodes, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := &schedule{cl: cl, logf: t.Logf, keys: map[string]bool{}}
	s.victim, s.k, s.m = drawSchedule(seed, total)
	t.Logf("schedule: kill n%d at %d, restart at %d (0 = never), of %d submissions", s.victim, s.k, s.m, total)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// R8: two chips through the fleet.
	tiles := chaosTiles{s, &client.TileSubmitter{C: client.New(cl.URL, nil), Policy: client.NewRetryPolicy(8, seed)}}
	for i, c := range chips {
		reused := cl.RT.Stats().TileReused
		dist, err := tiling.DistEvaluate(ctx, tech.N45(), tiling.NewExtractor(c.top), chaosOpts, tiles)
		if err != nil {
			t.Fatalf("chip %d: distributed evaluate: %v", i+1, err)
		}
		if !tiling.Equivalent(dist, c.local) {
			t.Errorf("chip %d: distributed result diverged from the single-process one", i+1)
		}
		if i == 1 && cl.RT.Stats().TileReused == reused {
			t.Errorf("chip 2 reused no tile the fleet already held")
		}
	}

	// R6: the technique stream.
	c := client.New(cl.URL, nil)
	policy := client.NewRetryPolicy(streamRetries+1, seed)
	var cached atomic.Int64
	harness.ForEach(ctx, 4, len(jobs), func(i int) {
		key, err := server.KeyForRequest(jobs[i])
		if err != nil {
			t.Errorf("job %d: %v", i, err)
			return
		}
		s.at(key)
		st, err := c.EvalWithRetry(ctx, jobs[i], policy)
		switch {
		case err != nil || st.State != server.StateDone:
			t.Errorf("job %d (%s seed %d): state %q, err %v", i, jobs[i].Technique, jobs[i].Seed, st.State, err)
		case st.Cached:
			cached.Add(1)
		}
	})
	if cached.Load() == 0 {
		t.Errorf("none of %d jobs was a cache hit", len(jobs))
	}

	cl.Report()
	if rs := cl.RT.Stats(); rs.Failed != 0 {
		t.Errorf("router failed %d requests", rs.Failed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.k > 0 && !s.killed || s.m > 0 && !s.restarted || s.restartErr != nil {
		t.Errorf("schedule did not run: killed %v restarted %v (%v) after %d submissions", s.killed, s.restarted, s.restartErr, s.n.Load())
	}
	fresh := cl.BackendSums().CacheMisses + s.retired.CacheMisses
	switch distinct := int64(len(s.keys)); {
	case seed == controlSeed && fresh != distinct:
		t.Errorf("control: %d fresh evaluations fleet-wide for %d distinct units", fresh, distinct)
	case fresh < distinct:
		t.Errorf("%d fresh evaluations fleet-wide for %d distinct units: something was answered uncomputed", fresh, distinct)
	}
}

// BenchmarkFleetChip is the fleet path with nothing else around it, the
// shape `make fleetprofile` profiles: the 50k-rect signoff chip through
// a router to two in-process nodes, pass A on a cold fleet with a fresh
// local cache (only distinct tiles travel) and pass B with the local
// cache off (every tile travels and is answered from a node cache). A
// fresh cluster per iteration, started off the clock.
func BenchmarkFleetChip(b *testing.B) {
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, TargetRects: 50_000, Defects: 8})
	if err != nil {
		b.Fatal(err)
	}
	ex := tiling.NewExtractor(l.Top)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := Start(Options{Nodes: 2, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.WaitReady(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
		sub := &client.TileSubmitter{C: client.New(cl.URL, &http.Client{Transport: tr}), Policy: client.NewRetryPolicy(4, 1)}
		oa := tiling.Opts{Tile: 24000, Halo: 2000, Workers: 2, DRC: true, Density: true, DensityWindow: 3000}
		ob := oa
		oa.Cache = tiling.NewCache(0)
		b.StartTimer()
		ra, err := tiling.DistEvaluate(ctx, tt, ex, oa, sub)
		if err != nil {
			b.Fatalf("pass A: %v", err)
		}
		rb, err := tiling.DistEvaluate(ctx, tt, ex, ob, sub)
		if err != nil {
			b.Fatalf("pass B: %v", err)
		}
		b.StopTimer()
		if eq := tiling.Equivalent(ra, rb); !eq || rb.Stats.RemoteCached != rb.Stats.RemoteTiles {
			b.Fatalf("pass B: equivalent to A %v, %d of %d units from node caches",
				eq, rb.Stats.RemoteCached, rb.Stats.RemoteTiles)
		}
		tr.CloseIdleConnections()
		cl.Stop()
		b.StartTimer()
	}
}
