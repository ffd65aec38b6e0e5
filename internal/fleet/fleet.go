// Package fleet is the in-process dfmd cluster rig shared by the load
// generator (`dfmload -cluster`), the full-chip CLI (`dfmscore -chip
// -cluster`), the fleet benchmark and the seeded chaos test: N dfmd nodes
// on fixed ports behind one dfmrouter. Fixed per-node addresses are the
// point: a node the chaos test kills and restarts on its slot keeps its
// router name, and with it the keys placement gives it.
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
)

// Node is one in-process dfmd "process": its server, HTTP front, and
// the fixed address it must come back on after a kill.
type Node struct {
	// Addr is the node's fixed host:port.
	Addr string

	srv *server.Server
	hs  *http.Server
}

// URL is the node's base URL.
func (n *Node) URL() string { return "http://" + n.Addr }

// start (re)binds the node's address and brings a fresh dfmd up on it.
func (n *Node) start() error {
	ln, err := net.Listen("tcp", n.Addr)
	if err != nil {
		return err
	}
	n.srv = server.New(server.DefaultConfig())
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go n.hs.Serve(ln) //nolint:errcheck // closed on kill/stop
	return nil
}

// Options sizes a cluster.
type Options struct {
	// Nodes is the backend count (required, ≥1). Every node runs
	// with server.DefaultConfig().
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
		if err := n.start(); err != nil {
			return nil, err
		}
		cl.Nodes = append(cl.Nodes, n)
		urls[i] = n.URL()
	}
	// Snappy chaos settings: evict within ~300ms of a node dying (two
	// faulted requests evict it sooner), put it on trial within ~300ms
	// of it proving recovery.
	rt, err := router.New(router.Config{
		Backends:       urls,
		CheckInterval:  100 * time.Millisecond,
		CheckTimeout:   500 * time.Millisecond,
		FailAfter:      2,
		RiseAfter:      2,
		MaxAttempts:    4,
		AttemptTimeout: 10 * time.Second,
		Logf:           func(f string, a ...any) { logf("  ["+f+"]", a...) },
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

// WaitReady polls the router's health endpoint (client.WaitReady) until
// it answers 200 (at least one backend up) or the budget runs out.
func (cl *Cluster) WaitReady(budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := client.New(cl.URL, nil).WaitReady(ctx); err != nil {
		return fmt.Errorf("fleet: router at %s not ready within %v: %w", cl.URL, budget, err)
	}
	return nil
}

// BackendSums aggregates server counters across the live nodes.
func (cl *Cluster) BackendSums() server.Stats {
	var out server.Stats
	for _, n := range cl.Nodes {
		s := n.srv.Stats()
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
	cl.logf("cluster backends: cacheHits=%d cacheMisses=%d deduped=%d completed=%d",
		s.CacheHits, s.CacheMisses, s.Deduped, s.Completed)
	// Hits over keyed lookups across the nodes. Singleflight
	// dedupes are not hits — they saved work but never touched the
	// cache.
	var hitPct float64
	if n := s.CacheHits + s.CacheMisses; n > 0 {
		hitPct = 100 * float64(s.CacheHits) / float64(n)
	}
	rs := cl.RT.Stats()
	cl.logf("cluster-wide cache hit rate: %.1f%%", hitPct)
	cl.logf("router: ok=%d failed=%d rejected=%d abandoned=%d retries=%d failovers=%d budgetDenied=%d tileJobs=%d tileReused=%d",
		rs.OK, rs.Failed, rs.Rejected, rs.Abandoned, rs.Retries, rs.Failovers, rs.BudgetDenied, rs.TileJobs, rs.TileReused)
	for _, b := range rs.Backends {
		cl.logf("  backend %s: up=%v picks=%d oks=%d fails=%d sheds=%d tiles=%d evictions=%d reinstates=%d",
			b.Name, b.Up, b.Picks, b.OKs, b.Fails, b.Sheds, b.Tiles, b.Evictions, b.Reinstates)
	}
}

// Stop tears the whole rig down: router, then every node.
func (cl *Cluster) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl.RT.Shutdown(ctx)
	cl.rhs.Close()
	// Shutdown and Close are both idempotent, so a node that is already
	// down is swept like the rest.
	for _, n := range cl.Nodes {
		n.srv.Shutdown(ctx)
		n.hs.Close()
	}
}

// Stream draws n technique jobs the way dfmload sends them: each is, with
// probability dup, a repeat of an earlier one, and otherwise one of the
// techniques on one of unique workload seeds from seed up. Same
// arguments, same stream.
func Stream(seed int64, n int, dup float64, unique int, techniques []string) []server.JobRequest {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]server.JobRequest, n)
	var used []server.JobRequest
	for i := range reqs {
		if len(used) > 0 && rng.Float64() < dup {
			reqs[i] = used[rng.Intn(len(used))]
		} else {
			reqs[i] = server.JobRequest{
				Technique: techniques[rng.Intn(len(techniques))],
				Seed:      seed + int64(rng.Intn(unique)),
			}
			used = append(used, reqs[i])
		}
	}
	return reqs
}
