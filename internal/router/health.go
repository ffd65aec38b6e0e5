package router

import (
	"context"
	"errors"
	"time"

	"repro/internal/client"
)

// healthLoop actively probes one backend's /healthz on an interval. Eviction is threshold-based: FailAfter consecutive bad
// probes take the node out of rotation (a single dropped packet must
// not), and RiseAfter consecutive good probes put it back — a node
// has to *prove* recovery before traffic returns, which is what keeps
// a crash-looping backend from absorbing and killing live requests.
// A draining node (503) is evicted on the first probe: drain is a
// deliberate signal, not noise, and waiting out the failure threshold
// would route doomed submissions at it.
func (r *Router) healthLoop(b *Backend) {
	defer r.loops.Done()
	t := time.NewTicker(r.cfg.CheckInterval)
	defer t.Stop()
	for {
		r.probe(b)
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

// probe runs one health check and folds the result into the
// backend's state.
func (r *Router) probe(b *Backend) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.CheckTimeout)
	err := b.cl.Healthz(ctx)
	cancel()

	switch {
	case err == nil:
		b.consecOK++
		b.consecFail = 0
		if !b.up.Load() && b.consecOK >= r.cfg.RiseAfter {
			b.up.Store(true)
			b.reinstates.Add(1)
			mReinstated.Inc()
			// Stale data-path history must not block a node that just
			// proved itself healthy.
			b.breaker.reset()
			r.logf("router: backend %s reinstated after %d clean probes", b.Name, b.consecOK)
		}
	case errors.Is(err, client.ErrDraining):
		// The node answered, and is draining: immediate eviction, no
		// threshold.
		b.consecOK = 0
		b.consecFail = r.cfg.FailAfter
		r.evict(b, "draining")
	default:
		b.consecOK = 0
		b.consecFail++
		if b.consecFail >= r.cfg.FailAfter {
			r.evict(b, err.Error())
		}
	}
}

// evict takes a backend out of rotation (idempotent).
func (r *Router) evict(b *Backend, why string) {
	if b.up.CompareAndSwap(true, false) {
		b.evictions.Add(1)
		mEvicted.Inc()
		r.logf("router: backend %s evicted (%s)", b.Name, why)
	}
}
