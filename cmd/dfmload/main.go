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
//
// Cluster mode (-cluster N) starts N in-process dfmd backends behind
// an in-process dfmrouter (internal/fleet) and aims the load at the
// router; the report adds router counters and the cluster-wide cache
// hit rate — the number that decided affinity routing was a hit
// (EXPERIMENTS.md R6). Killing and restarting a node mid-run is the
// seeded chaos test's job (`go test -run TestSeededChaos
// ./internal/fleet`), keyed on submission ordinals rather than on time.
//
// The report prints sent/ok/shed/failed counts, client-side
// p50/p95/p99/max end-to-end latency, and the server's own counters
// read from /metrics. The run exits 1 if any request failed (shed and
// draining are not failures); numbers meant for comparison across
// commits come from `bash benchmark/run.sh`, not from this report.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
)

type loadCfg struct {
	addr       string
	selfserve  bool
	cluster    int
	rate       float64
	duration   time.Duration
	dup        float64
	unique     int
	techniques []string
	seed       int64
	retries    int
}

const (
	requestTimeout = 30 * time.Second // per-request client budget
	waitReady      = 10 * time.Second // how long /healthz is polled for the server to come up
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9517", "dfmd (or dfmrouter) base URL")
	selfserve := flag.Bool("selfserve", false, "start an in-process dfmd on an ephemeral port instead of dialing -addr")
	cluster := flag.Int("cluster", 0, "start N in-process dfmd backends behind an in-process dfmrouter")
	rate := flag.Float64("rate", 50, "open-loop arrival rate, requests/second")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	dup := flag.Float64("dup", 0.5, "fraction of requests that duplicate an earlier one")
	unique := flag.Int("unique", 16, "distinct workload seeds to draw from")
	techniques := flag.String("techniques", "sraf", "comma-separated techniques to request")
	seed := flag.Int64("seed", 1, "generator seed (same seed, same request stream)")
	retries := flag.Int("retries", 0, "client-side retries per request (client.EvalWithRetry)")
	flag.Parse()

	cfg := loadCfg{
		addr: *addr, selfserve: *selfserve, cluster: *cluster,
		rate: *rate, duration: *duration, dup: *dup, unique: *unique,
		techniques: strings.Split(*techniques, ","), seed: *seed,
		retries: *retries,
	}
	if err := run(cfg); err != nil {
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
	if err := c.WaitReady(readyCtx); err != nil {
		return fmt.Errorf("server at %s not ready within %v: %w", cfg.addr, waitReady, err)
	}

	// Deterministic request stream: every arrival is drawn up front.
	total := int(cfg.rate * cfg.duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / cfg.rate)
	reqs := fleet.Stream(cfg.seed, total, cfg.dup, cfg.unique, cfg.techniques)

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
		class  client.Class // a job that settled failed is a fault
		cached bool
		dedup  bool
	}
	outs := make([]outcome, total)
	var wg sync.WaitGroup
	start := time.Now()
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
			o := outcome{lat: time.Since(t0), class: client.ClassOf(err), cached: st.Cached, dedup: st.Deduped}
			if o.class == client.ClassOK && st.State != server.StateDone {
				o.class = client.ClassFault
			}
			outs[i] = o
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var ok, shed, draining, failed, cached, dedup int
	var lats []time.Duration
	for _, o := range outs {
		switch o.class {
		case client.ClassOK:
			ok++
			lats = append(lats, o.lat)
			if o.cached {
				cached++
			}
			if o.dedup {
				dedup++
			}
		case client.ClassOverloaded:
			shed++
		case client.ClassDraining:
			draining++
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

	fmt.Printf("dfmload: %d requests over %.1fs (open-loop %.1f/s, dup %.0f%%, %d unique): %d ok, %d shed, %d draining, %d failed\n",
		total, elapsed.Seconds(), cfg.rate, 100*cfg.dup, cfg.unique, ok, shed, draining, failed)
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

// startInProcess runs a dfmd instance inside this process on an
// ephemeral port — no external server to manage for quick runs.
func startInProcess() (stop func(), url string, err error) {
	obs.SetEnabled(true)
	srv := server.New(server.DefaultConfig())
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
