// Package fleet is the in-process dfmd cluster rig shared by the load
// generator (`dfmload -cluster`), the full-chip CLI (`dfmscore -chip
// -cluster`), and the end-to-end chaos tests: N dfmd nodes on fixed
// ports behind one dfmrouter, with hard-kill and restart controls that
// look exactly like a crashed process to the router — listener and
// every live connection dropped with a reset. Fixed per-node addresses
// are the point: a node restarted on its slot keeps its router name,
// its ring arcs, and its outstanding job IDs.
package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
)

// Node is one in-process dfmd "process": its server, HTTP front, and
// the fixed address it must come back on after a kill. The mutex
// covers srv/hs handle swaps: chaos timers replace them from their own
// goroutines while reporters read them.
type Node struct {
	// Addr is the node's fixed host:port.
	Addr string

	mu  sync.Mutex
	srv *server.Server
	hs  *http.Server
}

// URL is the node's base URL.
func (n *Node) URL() string { return "http://" + n.Addr }

// Start (re)binds the node's address and brings a fresh dfmd up on it.
func (n *Node) Start() error {
	ln, err := net.Listen("tcp", n.Addr)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed on kill/stop
	n.mu.Lock()
	n.srv, n.hs = srv, hs
	n.mu.Unlock()
	return nil
}

// Handles returns the node's live server and HTTP front.
func (n *Node) Handles() (*server.Server, *http.Server) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv, n.hs
}

// Kill is abrupt: the listener and every live connection drop with a
// reset, exactly what a crashed process looks like to the router. The
// evaluation pool is then reaped so the dead node leaks nothing; the
// instance's final counters are returned for cluster-wide accounting.
func (n *Node) Kill() server.Stats {
	srv, hs := n.Handles()
	st := srv.Stats()
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	return st
}

// Options sizes a cluster.
type Options struct {
	// Nodes is the backend count (required, ≥1). Every node runs
	// with the server defaults.
	Nodes int
	// Logf receives cluster lifecycle lines; nil prints to stdout.
	Logf func(string, ...any)
}

// Cluster is N dfmd nodes behind one dfmrouter, all in-process.
type Cluster struct {
	Nodes []*Node
	RT    *router.Router
	// URL is the router's base URL — aim clients here.
	URL string

	rhs  *http.Server
	logf func(string, ...any)

	mu      sync.Mutex
	retired []server.Stats // counters captured from killed node instances
	timers  []*time.Timer
}

// Start brings up the cluster: N nodes on ephemeral-but-fixed ports,
// the router probing them, and the router's own HTTP front.
func Start(o Options) (*Cluster, error) {
	if o.Nodes < 1 {
		return nil, fmt.Errorf("fleet: need at least one node, got %d", o.Nodes)
	}
	obs.SetEnabled(true)
	logf := o.Logf
	if logf == nil {
		logf = func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	}
	cl := &Cluster{logf: logf}
	urls := make([]string, o.Nodes)
	for i := 0; i < o.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		n := &Node{Addr: addr}
		if err := n.Start(); err != nil {
			return nil, err
		}
		cl.Nodes = append(cl.Nodes, n)
		urls[i] = n.URL()
	}
	// Snappy chaos settings: evict within ~300ms of a node dying,
	// reinstate within ~300ms of it proving recovery. The breaker
	// reacts faster still on the data path.
	rt, err := router.New(router.Config{
		Backends:        urls,
		CheckInterval:   100 * time.Millisecond,
		CheckTimeout:    500 * time.Millisecond,
		FailAfter:       2,
		RiseAfter:       2,
		BreakerCooldown: 500 * time.Millisecond,
		MaxAttempts:     4,
		AttemptTimeout:  10 * time.Second,
		Logf:            func(f string, a ...any) { logf("  ["+f+"]", a...) },
	})
	if err != nil {
		return nil, err
	}
	cl.RT = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Shutdown(context.Background()) //nolint:errcheck // best-effort teardown
		return nil, err
	}
	cl.rhs = &http.Server{Handler: rt.Handler()}
	go cl.rhs.Serve(ln) //nolint:errcheck // closed on stop
	cl.URL = "http://" + ln.Addr().String()
	return cl, nil
}

// WaitReady polls the router's health endpoint until it answers 200
// (at least one backend up) or the budget runs out.
func (cl *Cluster) WaitReady(budget time.Duration) error {
	c := client.New(cl.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	for {
		if err := c.Healthz(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: router at %s not ready within %v", cl.URL, budget)
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// Kill hard-kills node i, retiring its counters into the cluster sums.
func (cl *Cluster) Kill(i int) {
	st := cl.Nodes[i].Kill()
	cl.mu.Lock()
	cl.retired = append(cl.retired, st)
	cl.mu.Unlock()
}

// Restart brings node i back up on its fixed address.
func (cl *Cluster) Restart(i int) error { return cl.Nodes[i].Start() }

// Schedule arms the chaos timers relative to the load start: kill node
// 0 at +kill, restart it at +restart (0 = never).
func (cl *Cluster) Schedule(start time.Time, kill, restart time.Duration) {
	if kill <= 0 {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.timers = append(cl.timers, time.AfterFunc(time.Until(start.Add(kill)), func() {
		cl.Kill(0)
		cl.logf("  [chaos: backend n0 killed at +%v]", kill)
	}))
	if restart > kill {
		cl.timers = append(cl.timers, time.AfterFunc(time.Until(start.Add(restart)), func() {
			if err := cl.Restart(0); err != nil {
				cl.logf("  [chaos: backend n0 restart FAILED: %v]", err)
				return
			}
			cl.logf("  [chaos: backend n0 restarted at +%v]", restart)
		}))
	}
}

// BackendSums aggregates server counters across every node instance
// this cluster ever ran, killed ones included.
func (cl *Cluster) BackendSums() server.Stats {
	cl.mu.Lock()
	sums := append([]server.Stats(nil), cl.retired...)
	cl.mu.Unlock()
	for _, n := range cl.Nodes {
		srv, _ := n.Handles()
		sums = append(sums, srv.Stats())
	}
	var out server.Stats
	for _, s := range sums {
		out.Submitted += s.Submitted
		out.Admitted += s.Admitted
		out.Shed += s.Shed
		out.Deduped += s.Deduped
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.Completed += s.Completed
		out.Failed += s.Failed
		out.Rejected += s.Rejected
	}
	return out
}

// Report prints the cluster-side accounting through the cluster's log
// sink.
func (cl *Cluster) Report() {
	s := cl.BackendSums()
	cl.logf("cluster backends: cacheHits=%d cacheMisses=%d deduped=%d completed=%d (fresh evaluations=%d)",
		s.CacheHits, s.CacheMisses, s.Deduped, s.Completed, s.CacheMisses)
	// Hits over keyed lookups across all node instances. Singleflight
	// dedupes are not hits — they saved work but never touched the
	// cache.
	var hitPct float64
	if n := s.CacheHits + s.CacheMisses; n > 0 {
		hitPct = 100 * float64(s.CacheHits) / float64(n)
	}
	rs := cl.RT.Stats()
	cl.logf("cluster-wide cache hit rate: %.1f%%", hitPct)
	cl.logf("router: ok=%d failed=%d retries=%d failovers=%d breakerBlocked=%d budgetDenied=%d tileJobs=%d tileReused=%d",
		rs.OK, rs.Failed, rs.Retries, rs.Failovers, rs.BreakerBlocked, rs.BudgetDenied, rs.TileJobs, rs.TileReused)
	for _, b := range rs.Backends {
		cl.logf("  backend %s: up=%v picks=%d oks=%d fails=%d sheds=%d tiles=%d evictions=%d reinstates=%d",
			b.Name, b.Up, b.Picks, b.OKs, b.Fails, b.Sheds, b.Tiles, b.Evictions, b.Reinstates)
	}
}

// Stop tears the whole rig down: chaos timers, router, every node.
func (cl *Cluster) Stop() {
	cl.mu.Lock()
	timers := cl.timers
	cl.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl.RT.Shutdown(ctx)
	cl.rhs.Close()
	// A killed-and-not-restarted node was already shut down by Kill();
	// Shutdown and Close are both idempotent, so sweep all.
	for _, n := range cl.Nodes {
		srv, hs := n.Handles()
		srv.Shutdown(ctx)
		hs.Close()
	}
}
