// Command dfmrouter fronts a fleet of dfmd nodes with cache-affinity
// routing and chaos-tolerant failover: requests route by
// content-address affinity over the result-cache key, sick backends are
// evicted by active health probes and reinstated only after proving recovery, circuit
// breakers react between probes at request speed, and failed attempts
// retry on another replica under a jittered backoff and a bounded
// retry budget — a dying cluster sheds load instead of retry-storming
// itself.
//
// Usage:
//
//	dfmrouter -backends URL1,URL2,... [-addr HOST:PORT]
//	          [-vnodes N]
//	          [-check-interval D] [-check-timeout D]
//	          [-fail-after N] [-rise-after N]
//	          [-breaker-threshold N] [-breaker-cooldown D]
//	          [-max-attempts N] [-retry-base D] [-retry-max D]
//	          [-attempt-timeout D] [-retry-budget N]
//	          [-drain D] [-quiet]
//
// The API is wire-compatible with a single dfmd node (see
// internal/router.Handler); job IDs gain a backend prefix
// ("n2.j-000017") so polls route back to the node that owns the job.
//
// SIGINT/SIGTERM begins a graceful drain mirroring dfmd's: new
// submissions answer 503 immediately, requests already being routed
// finish (failovers included) within the -drain budget, then the
// health probers stop.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9516", "listen address")
	backends := flag.String("backends", "", "comma-separated dfmd base URLs (required)")
	vnodes := flag.Int("vnodes", 128, "virtual nodes per backend on the affinity ring")
	checkInterval := flag.Duration("check-interval", 500*time.Millisecond, "health probe interval")
	checkTimeout := flag.Duration("check-timeout", time.Second, "health probe timeout")
	failAfter := flag.Int("fail-after", 3, "consecutive failed probes before eviction")
	riseAfter := flag.Int("rise-after", 2, "consecutive clean probes before reinstatement")
	brThreshold := flag.Int("breaker-threshold", 5, "consecutive data-path failures before a backend's circuit opens")
	brCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "open-circuit cooldown before a half-open trial")
	maxAttempts := flag.Int("max-attempts", 3, "total tries per request across replicas")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "first-retry backoff (doubles per retry, jittered)")
	retryMax := flag.Duration("retry-max", 2*time.Second, "backoff cap")
	attemptTimeout := flag.Duration("attempt-timeout", time.Minute, "per-attempt budget so black-holed backends become failovers (0 = none)")
	retryBudget := flag.Int("retry-budget", 100, "retry-budget token bucket size")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on shutdown")
	quiet := flag.Bool("quiet", false, "suppress lifecycle log lines")
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "dfmrouter: -backends is required")
		os.Exit(2)
	}

	// /metrics serves the obs registry; recording must be on for it
	// to tell the truth.
	obs.SetEnabled(true)

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	r, err := router.New(router.Config{
		Backends:         strings.Split(*backends, ","),
		Vnodes:           *vnodes,
		CheckInterval:    *checkInterval,
		CheckTimeout:     *checkTimeout,
		FailAfter:        *failAfter,
		RiseAfter:        *riseAfter,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		MaxAttempts:      *maxAttempts,
		RetryBase:        *retryBase,
		RetryMax:         *retryMax,
		AttemptTimeout:   *attemptTimeout,
		RetryBudget:      *retryBudget,
		Logf:             logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfmrouter:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfmrouter:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: r.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logf("dfmrouter: serving on http://%s (backends=%d)",
		ln.Addr(), len(strings.Split(*backends, ",")))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dfmrouter:", err)
		os.Exit(1)
	case s := <-sig:
		logf("dfmrouter: %v — draining (budget %v)", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		logf("dfmrouter: drain budget exceeded, in-flight routing abandoned")
	}
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	st := r.Stats()
	logf("dfmrouter: drained (ok=%d failed=%d retries=%d failovers=%d)",
		st.OK, st.Failed, st.Retries, st.Failovers)
}
