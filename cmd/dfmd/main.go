// Command dfmd serves the DFM technique evaluators as a long-lived
// HTTP JSON service: a bounded admission queue with live-signal load
// shedding (429 + Retry-After) feeding a persistent harness worker
// pool, singleflight collapsing of identical in-flight requests, and
// a content-addressed LRU cache so duplicate layouts from concurrent
// clients cost one evaluation.
//
// Usage:
//
//	dfmd [-addr HOST:PORT] [-workers N] [-queue N] [-cache N]
//	     [-max-wait D] [-timeout D] [-retries N] [-drain D] [-quiet]
//
// API (all JSON):
//
//	POST /v1/jobs            submit a job ({"technique","seed"}, or a tile
//	                         unit); ?wait=1 blocks for the result
//	GET  /v1/jobs/{id}       poll status
//	GET  /healthz            200 serving / 503 draining
//	GET  /metrics            server stats + obs registry snapshot
//
// SIGINT/SIGTERM begins a graceful drain: new submissions get 503,
// queued jobs settle with a clean rejection, in-flight evaluations
// finish (up to -drain, then they are force-canceled).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	def := server.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:9517", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "evaluation worker pool width")
	queue := flag.Int("queue", def.Queue, "admission queue capacity")
	cache := flag.Int("cache", 1024, "result cache entries")
	maxWait := flag.Duration("max-wait", def.MaxWait, "admission wait budget before shedding (0 = shed only on a full queue)")
	timeout := flag.Duration("timeout", 2*time.Minute, "evaluation budget of every job")
	retries := flag.Int("retries", def.Retries, "extra attempts for retryable workload failures")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown before in-flight jobs are canceled")
	quiet := flag.Bool("quiet", false, "suppress the startup/shutdown log lines")
	flag.Parse()

	// The /metrics endpoint serves the obs registry; a metrics
	// service with a disabled registry would lie, so serving turns
	// recording on.
	obs.SetEnabled(true)

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheSize:      *cache,
		MaxWait:        *maxWait,
		DefaultTimeout: *timeout,
		Retries:        *retries,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfmd:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logf("dfmd: serving on http://%s (workers=%d queue=%d cache=%d)",
		ln.Addr(), *workers, *queue, *cache)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dfmd:", err)
		os.Exit(1)
	case s := <-sig:
		logf("dfmd: %v — draining (budget %v)", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order: stop admitting first (jobs and health flip immediately),
	// then drain the evaluation pool, then close HTTP listeners —
	// poll/wait handlers keep answering while jobs settle.
	if err := srv.Shutdown(ctx); err != nil {
		logf("dfmd: drain budget exceeded, in-flight jobs canceled")
	}
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	st := srv.Stats()
	logf("dfmd: drained (completed=%d failed=%d rejected=%d shed=%d deduped=%d cacheHits=%d)",
		st.Completed, st.Failed, st.Rejected, st.Shed, st.Deduped, st.CacheHits)
}
