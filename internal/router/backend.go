package router

import (
	"net/http"
	"sync/atomic"

	"repro/internal/client"
)

// Backend is one dfmd node behind the router: its client and its one
// health record, which probes and data-path outcomes both feed.
type Backend struct {
	// Name is the stable routing identity ("n0", "n1", ...): it is
	// what placement scores, so a backend that restarts on the same slot
	// keeps its keys.
	Name string
	// URL is the node's base URL.
	URL string

	// hash is hash64(Name), placement's half of every score.
	hash   uint64
	cl     *client.Client
	health health

	// inflight counts requests this router currently has against the
	// node.
	inflight atomic.Int64

	// always-on accounting, surfaced in /metrics.
	picks, oks, fails, sheds atomic.Int64
	evictions, reinstates    atomic.Int64
	tiles                    atomic.Int64
}

func newBackend(name, url string, hc *http.Client, failAfter, riseAfter int) *Backend {
	return &Backend{
		Name:   name,
		URL:    url,
		hash:   hash64(name),
		cl:     client.New(url, hc),
		health: health{failAfter: failAfter, riseAfter: riseAfter},
	}
}

// BackendStatus is the per-backend slice of the router's /metrics
// body.
type BackendStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Up reports that the backend admits traffic: it is up, or on
	// trial for its one request.
	Up         bool  `json:"up"`
	InFlight   int64 `json:"inFlight"`
	Picks      int64 `json:"picks"`
	OKs        int64 `json:"oks"`
	Fails      int64 `json:"fails"`
	Sheds      int64 `json:"sheds"`
	Evictions  int64 `json:"evictions"`
	Reinstates int64 `json:"reinstates"`
	// Tiles counts tile work units this backend served — how evenly
	// placement spreads a chip across the fleet.
	Tiles int64 `json:"tiles"`
}

func (b *Backend) status() BackendStatus {
	return BackendStatus{
		Name:       b.Name,
		URL:        b.URL,
		Up:         b.health.admitting(),
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
