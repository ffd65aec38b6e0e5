// Command dfmload is a deterministic open-loop load generator for
// dfmd: arrivals fire on a fixed schedule derived from -rate,
// independent of how fast the server answers (so queueing delay shows
// up as latency, exactly like production traffic), and a seeded RNG
// draws each request either fresh or as a duplicate of an earlier one
// (-dup), exercising the server's singleflight and content-addressed
// cache paths on purpose.
//
// Usage:
//
//	dfmload [-addr URL | -selfserve | -cluster N] [-rate R] [-duration D]
//	        [-dup F] [-unique N] [-techniques a,b] [-seed N] [-retries N]
//	        [-kill D] [-restart D]   (cluster mode)
//
// Cluster mode (-cluster N) starts N in-process dfmd backends behind
// an in-process dfmrouter (internal/fleet) and aims the load at the
// router. -kill D hard-kills backend n0 (listener and all live
// connections dropped) D after the load starts; -restart D brings a
// fresh dfmd up on the same port. That is the chaos experiment: an
// open-loop burst, a node dying mid-burst, and the router's failover
// path on the hook for every in-flight request. The report adds
// router counters (failovers, evictions, reinstatements) and the
// cluster-wide cache hit rate — the number that decided affinity
// routing was a hit (EXPERIMENTS.md R6).
//
// Full-chip fleet mode (-cluster N -chip) swaps the open-loop
// technique load for the distributed tiling experiment: two SoC
// floorplans (seeds -seed and -seed+1, sharing macro content) are
// each evaluated single-process and then fanned tile-by-tile across
// the fleet through the router (tiling.DistEvaluate), with the chaos
// schedule killing and restarting a backend mid-chip. The run fails
// unless every distributed result is bit-identical to its
// single-process twin, and reports local vs distributed per-tile
// latency plus the fleet-wide duplicate-tile hit rate across the two
// chips.
//
// The report prints sent/ok/shed/failed counts, client-side
// p50/p95/p99/max end-to-end latency, and the server's own counters
// read from /metrics. The run exits 1 if any request failed (shed and
// draining are not failures) or a distributed chip diverged; numbers
// meant for comparison across commits come from `bash benchmark/run.sh`,
// not from this report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tech"
	"repro/internal/tiling"
)

type loadCfg struct {
	addr       string
	selfserve  bool
	cluster    int
	kill       time.Duration
	restart    time.Duration
	rate       float64
	duration   time.Duration
	dup        float64
	unique     int
	techniques []string
	seed       int64
	retries    int

	chip      bool
	chipRects int64
}

const (
	requestTimeout = 30 * time.Second // per-request client budget
	waitReady      = 10 * time.Second // how long /healthz is polled for the server to come up
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9517", "dfmd (or dfmrouter) base URL")
	selfserve := flag.Bool("selfserve", false, "start an in-process dfmd on an ephemeral port instead of dialing -addr")
	cluster := flag.Int("cluster", 0, "start N in-process dfmd backends behind an in-process dfmrouter")
	kill := flag.Duration("kill", 0, "cluster mode: hard-kill backend n0 this long after the load starts (0 = never)")
	restart := flag.Duration("restart", 0, "cluster mode: restart the killed backend this long after the load starts (0 = never)")
	rate := flag.Float64("rate", 50, "open-loop arrival rate, requests/second")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	dup := flag.Float64("dup", 0.5, "fraction of requests that duplicate an earlier one")
	unique := flag.Int("unique", 16, "distinct workload seeds to draw from")
	techniques := flag.String("techniques", "sraf", "comma-separated techniques to request")
	seed := flag.Int64("seed", 1, "generator seed (same seed, same request stream)")
	retries := flag.Int("retries", 0, "client-side retries per request (client.EvalWithRetry)")
	chip := flag.Bool("chip", false, "cluster mode: run the distributed full-chip tiling experiment instead of the open-loop technique load")
	chipRects := flag.Int64("chiprects", 150_000, "chip mode: target flattened rect count per chip")
	flag.Parse()

	cfg := loadCfg{
		addr: *addr, selfserve: *selfserve, cluster: *cluster,
		kill: *kill, restart: *restart,
		rate: *rate, duration: *duration, dup: *dup, unique: *unique,
		techniques: strings.Split(*techniques, ","), seed: *seed,
		retries: *retries, chip: *chip, chipRects: *chipRects,
	}
	var err error
	if cfg.chip {
		err = runFleetChip(cfg)
	} else {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfmload:", err)
		os.Exit(1)
	}
}

func run(cfg loadCfg) error {
	if cfg.rate <= 0 || cfg.duration <= 0 {
		return fmt.Errorf("need positive -rate and -duration")
	}
	var cl *fleet.Cluster
	switch {
	case cfg.cluster > 0:
		var err error
		cl, err = fleet.Start(fleet.Options{Nodes: cfg.cluster})
		if err != nil {
			return err
		}
		defer cl.Stop()
		cfg.addr = cl.URL
		fmt.Printf("cluster: %d backends behind the router at %s\n", cfg.cluster, cl.URL)
	case cfg.selfserve:
		stop, url, err := startInProcess()
		if err != nil {
			return err
		}
		defer stop()
		cfg.addr = url
	}
	c := client.New(cfg.addr, nil)

	// Readiness: a cold dfmd (or one still binding) answers within
	// the wait-ready budget; the clock starts only once it does.
	readyCtx, cancel := context.WithTimeout(context.Background(), waitReady)
	defer cancel()
	for {
		if err := c.Healthz(readyCtx); err == nil {
			break
		}
		select {
		case <-readyCtx.Done():
			return fmt.Errorf("server at %s not ready within %v", cfg.addr, waitReady)
		case <-time.After(100 * time.Millisecond):
		}
	}

	// Deterministic request stream: every arrival is drawn up front.
	rng := rand.New(rand.NewSource(cfg.seed))
	total := int(cfg.rate * cfg.duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / cfg.rate)
	reqs := make([]server.JobRequest, total)
	var used []server.JobRequest
	for i := range reqs {
		if len(used) > 0 && rng.Float64() < cfg.dup {
			reqs[i] = used[rng.Intn(len(used))]
		} else {
			reqs[i] = server.JobRequest{
				Technique: cfg.techniques[rng.Intn(len(cfg.techniques))],
				Seed:      cfg.seed + int64(rng.Intn(cfg.unique)),
			}
			used = append(used, reqs[i])
		}
	}

	var before server.Stats
	if cl == nil {
		var err error
		before, _, err = c.Metrics(context.Background())
		if err != nil {
			return fmt.Errorf("metrics before run: %w", err)
		}
	}

	// One shared retry policy: the same battle-tested backoff loop
	// the router uses internally, seeded for a reproducible schedule.
	retryPolicy := client.NewRetryPolicy(cfg.retries+1, cfg.seed)

	type outcome struct {
		lat    time.Duration
		state  string // ok | shed | draining | failed
		cached bool
		dedup  bool
	}
	outs := make([]outcome, total)
	var wg sync.WaitGroup
	start := time.Now()
	if cl != nil {
		cl.Schedule(start, cfg.kill, cfg.restart)
	}
	for i := range reqs {
		// Open loop: fire at the scheduled instant no matter how many
		// responses are still outstanding.
		if sleep := start.Add(time.Duration(i) * interval).Sub(time.Now()); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			t0 := time.Now()
			st, err := c.EvalWithRetry(ctx, reqs[i], retryPolicy)
			lat := time.Since(t0)
			switch {
			case err == nil && st.State == server.StateDone:
				outs[i] = outcome{lat: lat, state: "ok", cached: st.Cached, dedup: st.Deduped}
			case isOverloaded(err):
				outs[i] = outcome{lat: lat, state: "shed"}
			case errors.Is(err, client.ErrDraining):
				outs[i] = outcome{lat: lat, state: "draining"}
			default:
				outs[i] = outcome{lat: lat, state: "failed"}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var ok, shed, failed, cached, dedup int
	var lats []time.Duration
	for _, o := range outs {
		switch o.state {
		case "ok":
			ok++
			lats = append(lats, o.lat)
			if o.cached {
				cached++
			}
			if o.dedup {
				dedup++
			}
		case "shed":
			shed++
		default:
			failed++
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(q*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}

	fmt.Printf("dfmload: %d requests over %.1fs (open-loop %.1f/s, dup %.0f%%, %d unique): %d ok, %d shed, %d failed\n",
		total, elapsed.Seconds(), cfg.rate, 100*cfg.dup, cfg.unique, ok, shed, failed)
	if ok > 0 {
		fmt.Printf("client e2e latency: p50 %v  p95 %v  p99 %v  max %v\n",
			pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
		fmt.Printf("served from: %d cache hits, %d deduped in-flight, %d fresh evaluations (client view)\n",
			cached, dedup, ok-cached-dedup)
	}

	if cl != nil {
		cl.Report()
	} else {
		after, _, err := c.Metrics(context.Background())
		if err != nil {
			return fmt.Errorf("metrics after run: %w", err)
		}
		fmt.Printf("server counters (this run): admitted=%d shed=%d deduped=%d cacheHits=%d cacheMisses=%d completed=%d failed=%d\n",
			after.Admitted-before.Admitted, after.Shed-before.Shed,
			after.Deduped-before.Deduped, after.CacheHits-before.CacheHits,
			after.CacheMisses-before.CacheMisses, after.Completed-before.Completed,
			after.Failed-before.Failed)
	}
	fmt.Printf("sustained throughput: %.1f ok/s\n", float64(ok)/elapsed.Seconds())

	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}

func isOverloaded(err error) bool {
	var ov *client.Overloaded
	return errors.As(err, &ov)
}

// startInProcess runs a dfmd instance inside this process on an
// ephemeral port — no external server to manage for quick runs.
func startInProcess() (stop func(), url string, err error) {
	obs.SetEnabled(true)
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed on stop
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Close()
	}, "http://" + ln.Addr().String(), nil
}

// runFleetChip is the distributed full-chip experiment: two chips
// whose floorplans share macro content (consecutive seeds draw from
// the same seed-independent macro library), each evaluated locally and
// then fanned across the fleet, with the chaos schedule riding the
// first distributed run. Fails unless every distributed result is
// bit-identical to its single-process twin.
func runFleetChip(cfg loadCfg) error {
	if cfg.cluster < 1 {
		return fmt.Errorf("-chip needs -cluster N (the distributed run wants a fleet)")
	}
	cl, err := fleet.Start(fleet.Options{Nodes: cfg.cluster})
	if err != nil {
		return err
	}
	defer cl.Stop()
	if err := cl.WaitReady(waitReady); err != nil {
		return err
	}
	fmt.Printf("fleet chip: %d backends behind the router at %s\n", cfg.cluster, cl.URL)

	t := tech.N45()
	topts := tiling.Opts{
		Tile: 24000, Halo: 2000, Workers: runtime.GOMAXPROCS(0),
		DRC: true, Density: true, DensityWindow: 3000,
		MaxViolations: 100_000,
		// No local tile cache: every unit goes to the fleet, so the
		// duplicate-tile rate below is measured fleet-wide, not hidden
		// behind in-process reuse.
	}
	sub := &client.TileSubmitter{
		C:      client.New(cl.URL, nil),
		Policy: client.NewRetryPolicy(cfg.retries+4, cfg.seed),
	}

	ctx := context.Background()
	var (
		mismatches         int
		remCache, remDedup int64
	)
	for ci, seed := range []int64{cfg.seed, cfg.seed + 1} {
		l, info, err := layout.GenerateChip(t, layout.ChipOpts{
			Seed: seed, TargetRects: cfg.chipRects, Defects: 8,
		})
		if err != nil {
			return fmt.Errorf("generate chip %d: %w", ci+1, err)
		}
		local, err := tiling.Evaluate(ctx, t, tiling.NewExtractor(l.Top), topts)
		if err != nil {
			return fmt.Errorf("chip %d local evaluation: %w", ci+1, err)
		}
		if ci == 0 && cfg.kill > 0 {
			cl.Schedule(time.Now(), cfg.kill, cfg.restart)
		}
		dist, err := tiling.DistEvaluate(ctx, t, tiling.NewExtractor(l.Top), topts, sub)
		if err != nil {
			return fmt.Errorf("chip %d distributed evaluation: %w", ci+1, err)
		}
		match := tiling.Equivalent(local, dist)
		if !match {
			mismatches++
		}
		remCache += dist.Stats.RemoteCached
		remDedup += dist.Stats.RemoteDeduped
		fmt.Printf("chip %d (seed %d): %d rects, %d tiles; local %v (%.1f tiles/s), dist %v (%.1f tiles/s), match=%v\n",
			ci+1, seed, info.Rects, local.Stats.Tiles,
			local.Stats.Elapsed.Round(time.Millisecond),
			float64(local.Stats.Tiles)/local.Stats.Elapsed.Seconds(),
			dist.Stats.Elapsed.Round(time.Millisecond),
			float64(dist.Stats.Tiles)/dist.Stats.Elapsed.Seconds(), match)
	}

	cl.Report()
	rs := cl.RT.Stats()
	var dupPct float64
	if rs.TileJobs > 0 {
		dupPct = 100 * float64(rs.TileReused) / float64(rs.TileJobs)
	}
	fmt.Printf("fleet duplicate-tile hit rate: %.1f%% (%d of %d routed units; submitter saw %d cached + %d deduped)\n",
		dupPct, rs.TileReused, rs.TileJobs, remCache, remDedup)

	if mismatches > 0 {
		return fmt.Errorf("%d of 2 distributed chip results diverged from single-process", mismatches)
	}
	return nil
}
