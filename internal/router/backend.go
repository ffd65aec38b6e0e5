package router

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// Backend is one dfmd node behind the router: its client, its health
// state as seen by the active checker and its circuit breaker on the
// data path.
type Backend struct {
	// Name is the stable routing identity ("n0", "n1", ...): it keys
	// the hash ring and prefixes job IDs, so a backend that restarts
	// on the same slot keeps its ring arcs and its outstanding jobs
	// stay resolvable.
	Name string
	// URL is the node's base URL.
	URL string

	cl      *client.Client
	breaker *breaker
	// idPrefix is the header every job request to this node carries:
	// the node writes its job IDs as "<Name>.<id>" (server.HeaderIDPrefix),
	// so its answers need no rewriting on the way back.
	idPrefix http.Header

	// up is the health checker's verdict. Backends start up
	// (optimistic): the first data-path failures trip the breaker
	// long before the probe loop could notice.
	up atomic.Bool
	// inflight counts requests this router currently has against the
	// node.
	inflight atomic.Int64

	// always-on accounting, surfaced in /metrics.
	picks, oks, fails, sheds atomic.Int64
	evictions, reinstates    atomic.Int64
	tiles                    atomic.Int64

	// probe bookkeeping, touched only by the health loop.
	consecFail, consecOK int
}

func newBackend(name, url string, hc *http.Client, brThreshold int, brCooldown time.Duration, now func() time.Time) *Backend {
	b := &Backend{
		Name:     name,
		URL:      url,
		cl:       client.New(url, hc),
		breaker:  newBreaker(brThreshold, brCooldown, now),
		idPrefix: http.Header{server.HeaderIDPrefix: {name + "."}},
	}
	b.up.Store(true)
	return b
}

// BackendStatus is the per-backend slice of the router's /metrics
// body.
type BackendStatus struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Up         bool   `json:"up"`
	Breaker    string `json:"breaker"`
	InFlight   int64  `json:"inFlight"`
	Picks      int64  `json:"picks"`
	OKs        int64  `json:"oks"`
	Fails      int64  `json:"fails"`
	Sheds      int64  `json:"sheds"`
	Evictions  int64  `json:"evictions"`
	Reinstates int64  `json:"reinstates"`
	// Tiles counts tile work units this backend served — how evenly
	// the affinity ring spreads a chip across the fleet.
	Tiles int64 `json:"tiles"`
}

func (b *Backend) status() BackendStatus {
	return BackendStatus{
		Name:       b.Name,
		URL:        b.URL,
		Up:         b.up.Load(),
		Breaker:    b.breaker.snapshot(),
		InFlight:   b.inflight.Load(),
		Picks:      b.picks.Load(),
		OKs:        b.oks.Load(),
		Fails:      b.fails.Load(),
		Sheds:      b.sheds.Load(),
		Evictions:  b.evictions.Load(),
		Reinstates: b.reinstates.Load(),
		Tiles:      b.tiles.Load(),
	}
}
