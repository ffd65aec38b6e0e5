package router

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// Handler returns the router's HTTP API — wire-compatible with a
// single dfmd node, so clients point at the router and notice nothing
// except that it survives node deaths:
//
//	POST /v1/jobs            route a submission, bytes untouched; ?wait=1 blocks
//	GET  /v1/jobs/{id}       poll (IDs carry the backend: "n2.j-000017")
//	GET  /healthz            200 while ≥1 backend is up and not draining
//	GET  /metrics            router stats + per-backend states + obs registry
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleJob)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

// handleSubmit routes one submission without reading it. The body is
// buffered under the bound both tiers share and sent, byte for byte, to
// the backend its key's ring order picks — the same buffer again on
// every retry and failover — and the backend's answer is relayed byte
// for byte. The
// three facts the router needs travel beside the JSON (server.Header*):
// the ID prefix goes out as a request header the node applies, and the
// job's kind and reuse come back as response headers. So a malformed
// body is the node's 400 passed through, and nothing a client sends can
// make the router decode, validate, key or re-encode a payload.
func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		server.WriteError(w, http.StatusServiceUnavailable, "router shutting down")
		return
	}
	r.inflight.Add(1)
	defer r.inflight.Done()

	body, ok := server.ReadJobBody(w, req)
	if !ok {
		return
	}
	path := "/v1/jobs"
	if req.URL.Query().Get("wait") != "" {
		path += "?wait=1"
	}
	rep, b, err := r.route(req.Context(), placement(req.Header.Get(server.HeaderRouteKey), body),
		func(ctx context.Context, b *Backend) (*client.Reply, error) {
			return b.cl.Forward(ctx, http.MethodPost, path, b.idPrefix, body)
		})
	if err != nil {
		r.writeRouteError(w, err)
		return
	}
	// Fleet-level tile accounting: total units, per-backend placement,
	// and reuse (a backend answering from its cache or deduping into an
	// in-flight twin — what `dfmload -cluster N -chip` prints as the
	// duplicate-tile hit rate and the benchmark reads as
	// router.tile_reused_ratio).
	if rep.Header.Get(server.HeaderJobKind) == server.KindTile {
		r.tileJobs.Add(1)
		mTileJobs.Inc()
		b.tiles.Add(1)
		if rep.Header.Get(server.HeaderJobReused) != "" {
			r.tileReused.Add(1)
			mTileReused.Inc()
		}
	}
	relay(w, rep)
}

// placement is the key a submission is placed on the affinity ring by:
// the content address its client claims, when that has the shape of one
// ("sha256:" and 64 hex digits), and otherwise — no claim, an empty one,
// ten kilobytes of one — the sha256 of the body, which still sends equal
// bytes to one node. The claim is believed for placement only. A wrong
// one puts a unit on a node that does not hold it cached, a miss the
// client pays for itself; the node keys what it decoded, so no cache
// entry, singleflight or JobStatus.Key ever depends on it.
func placement(claim string, body []byte) string {
	if digest, ok := strings.CutPrefix(claim, "sha256:"); ok && len(digest) == 2*sha256.Size {
		var sum [sha256.Size]byte
		if _, err := hex.Decode(sum[:], []byte(digest)); err == nil {
			return claim
		}
	}
	sum := sha256.Sum256(body)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// relay writes a backend's answer out as it came.
func relay(w http.ResponseWriter, rep *client.Reply) {
	if ct := rep.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(rep.Code)
	w.Write(rep.Body) //nolint:errcheck // client gone; nothing to do
}

// writeRouteError maps a routing failure onto the wire. Overload and
// drain keep their single-node shapes (429 with the hint, 503);
// transport-level exhaustion is the router's own 502.
func (r *Router) writeRouteError(w http.ResponseWriter, err error) {
	var ov *client.Overloaded
	switch {
	case errors.As(err, &ov):
		// Same contract as a single dfmd node: the header carries the
		// hint in whole seconds with a 1s floor (a sub-second estimate
		// would round to 0 and spin naive callers), the JSON body the
		// millisecond-precision value.
		secs := int64(ov.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		server.WriteJSON(w, http.StatusTooManyRequests, server.ErrorBody{
			Error:        "cluster overloaded",
			RetryAfterMS: ov.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, client.ErrDraining):
		server.WriteError(w, http.StatusServiceUnavailable, "all backends draining")
	case errors.Is(err, errNoBackend):
		server.WriteError(w, http.StatusServiceUnavailable, "no available backend")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		server.WriteError(w, http.StatusRequestTimeout, "canceled while routing: "+err.Error())
	default:
		var se *client.StatusError
		if errors.As(err, &se) && se.Code < 500 {
			// Backend validation verdicts pass through unchanged.
			server.WriteError(w, se.Code, se.Msg)
			return
		}
		server.WriteError(w, http.StatusBadGateway, "all replicas failed: "+err.Error())
	}
}

// splitID separates "n2.j-000017" into its backend and node-local job
// ID. The local half is spliced into the URL the backend is asked, so
// only the shape a node mints passes — "j-" and decimal digits, no more
// of them than an int64 has: anything else ("x/../../metrics",
// "healthz?deep=1") would reach whatever GET path on the backend it
// spells.
func (r *Router) splitID(id string) (*Backend, string, bool) {
	name, local, ok := strings.Cut(id, ".")
	digits, minted := strings.CutPrefix(local, "j-")
	if !ok || !minted || len(digits) == 0 || len(digits) > 19 {
		return nil, "", false
	}
	for _, c := range []byte(digits) {
		if c < '0' || c > '9' {
			return nil, "", false
		}
	}
	b, ok := r.byName[name]
	return b, local, ok
}

func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	b, local, ok := r.splitID(req.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job id (want <backend>.j-<digits>)")
		return
	}
	rep, err := b.cl.Forward(req.Context(), http.MethodGet, "/v1/jobs/"+local, b.idPrefix, nil)
	if err != nil {
		var se *client.StatusError
		if errors.As(err, &se) {
			server.WriteError(w, se.Code, se.Msg)
			return
		}
		server.WriteError(w, http.StatusBadGateway, "backend "+b.Name+" unreachable: "+err.Error())
		return
	}
	relay(w, rep)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	up := 0
	for _, b := range r.backends {
		if b.up.Load() {
			up++
		}
	}
	if up == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "no backends", "up": 0, "backends": len(r.backends),
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "up": up, "backends": len(r.backends),
	})
}

// routerMetricsBody is the /metrics payload.
type routerMetricsBody struct {
	Router   Stats        `json:"router"`
	Registry obs.Snapshot `json:"registry"`
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	server.WriteJSON(w, http.StatusOK, routerMetricsBody{
		Router:   r.Stats(),
		Registry: obs.Default().Snapshot(),
	})
}
