package router

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// Handler returns the router's HTTP API — wire-compatible with a
// single dfmd node, so clients point at the router and notice nothing
// except that it survives node deaths:
//
//	POST /v1/jobs            route a submission, bytes untouched; answered once it settles
//	GET  /healthz            200 while ≥1 backend is up and not draining
//	GET  /metrics            router stats + per-backend states + obs registry
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

// handleSubmit routes one submission without reading it. The body is
// buffered under the bound both tiers share and sent, byte for byte, to
// the backend its key's preference order picks — the same buffer again on
// every retry and failover — and the backend's answer is relayed byte
// for byte. The facts the router needs travel beside the JSON
// (server.Header*): the placement claim goes out with the request, and
// the job's kind and reuse come back as response headers. So a
// malformed body is the node's 400 passed through, and nothing a client
// sends can make the router decode, validate, key or re-encode a
// payload.
func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if !r.admit() {
		server.WriteError(w, http.StatusServiceUnavailable, "router shutting down")
		return
	}
	defer r.inflight.Done()

	body, ok := server.ReadJobBody(w, req)
	if !ok {
		return
	}
	rep, b, err := r.route(req.Context(), placement(req.Header.Get(server.HeaderRouteKey), body),
		func(ctx context.Context, b *Backend) (*client.Reply, error) {
			return b.cl.Forward(ctx, http.MethodPost, "/v1/jobs", nil, body)
		})
	if err != nil {
		r.writeRouteError(w, err)
		return
	}
	// Fleet-level tile accounting: total units, per-backend placement,
	// and reuse (a backend answering from its cache or deduping into an
	// in-flight twin — what the benchmark reads as
	// router.tile_reused_ratio and the chaos test asks of a second chip).
	if rep.Header.Get(server.HeaderJobKind) == server.KindTile {
		r.tileJobs.Add(1)
		b.tiles.Add(1)
		if rep.Header.Get(server.HeaderJobReused) != "" {
			r.tileReused.Add(1)
		}
	}
	relay(w, rep)
}

// placement is the key a submission is placed by:
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

// relay writes a backend's answer out as it came, declaring its length
// so that it is not chunked.
func relay(w http.ResponseWriter, rep *client.Reply) {
	if ct := rep.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(rep.Body)))
	w.WriteHeader(rep.Code)
	w.Write(rep.Body) //nolint:errcheck // client gone; nothing to do
}

// writeRouteError maps a routing failure onto the wire. Overload and
// drain keep their single-node shapes (429 with the hint, 503); a
// backend's 4xx verdict passes through unchanged; a request no backend
// was left to take is the router's 503, and transport-level exhaustion
// its 502.
func (r *Router) writeRouteError(w http.ResponseWriter, err error) {
	var (
		ov *client.Overloaded
		se *client.StatusError
	)
	switch client.ClassOf(err) {
	case client.ClassOverloaded:
		errors.As(err, &ov)
		server.WriteOverloaded(w, "cluster overloaded", ov.RetryAfter)
	case client.ClassDraining:
		server.WriteError(w, http.StatusServiceUnavailable, "all backends draining")
	case client.ClassCanceled:
		server.WriteError(w, http.StatusRequestTimeout, "canceled while routing: "+err.Error())
	default:
		switch {
		case errors.As(err, &se) && se.Code < 500:
			server.WriteError(w, se.Code, se.Msg)
		case errors.Is(err, errNoBackend):
			server.WriteError(w, http.StatusServiceUnavailable, "no available backend")
		default:
			server.WriteError(w, http.StatusBadGateway, "all replicas failed: "+err.Error())
		}
	}
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	up := 0
	for _, b := range r.backends {
		if b.health.admitting() {
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
