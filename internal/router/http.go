package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/dfm"
	"repro/internal/obs"
	"repro/internal/server"
)

// Handler returns the router's HTTP API — wire-compatible with a
// single dfmd node, so clients point at the router and notice nothing
// except that it survives node deaths:
//
//	POST /v1/jobs            route a submission; ?wait=1 blocks
//	GET  /v1/jobs/{id}       poll (IDs carry the backend: "n2.j-000017")
//	GET  /v1/jobs/{id}/result  settled outcome
//	GET  /v1/techniques      technique registry
//	GET  /healthz            200 while ≥1 backend is up and not draining
//	GET  /metrics            router stats + per-backend states + obs registry
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", r.handleResult)
	mux.HandleFunc("GET /v1/techniques", r.handleTechniques)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		server.WriteError(w, http.StatusServiceUnavailable, "router shutting down")
		return
	}
	r.inflight.Add(1)
	defer r.inflight.Done()

	jr, ok := server.DecodeJobRequest(w, req)
	if !ok {
		return
	}
	var (
		st  server.JobStatus
		b   *Backend
		err error
	)
	if req.URL.Query().Get("wait") != "" {
		st, b, err = r.Eval(req.Context(), jr)
	} else {
		st, b, err = r.Submit(req.Context(), jr)
	}
	if err != nil {
		r.writeRouteError(w, err)
		return
	}
	st.ID = b.Name + "." + st.ID
	code := http.StatusAccepted
	if st.State == server.StateDone || st.State == server.StateFailed {
		code = http.StatusOK
	}
	server.WriteJSON(w, code, st)
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

// splitID separates "n2.j-000017" into its backend and node-local
// job ID.
func (r *Router) splitID(id string) (*Backend, string, bool) {
	name, rest, ok := strings.Cut(id, ".")
	if !ok {
		return nil, "", false
	}
	for _, b := range r.backends {
		if b.Name == name {
			return b, rest, true
		}
	}
	return nil, "", false
}

func (r *Router) proxyJob(w http.ResponseWriter, req *http.Request, result bool) {
	b, local, ok := r.splitID(req.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job id (want <backend>.<id>)")
		return
	}
	st, err := b.cl.Job(req.Context(), local)
	if err != nil {
		var se *client.StatusError
		if errors.As(err, &se) {
			server.WriteError(w, se.Code, se.Msg)
			return
		}
		server.WriteError(w, http.StatusBadGateway, "backend "+b.Name+" unreachable: "+err.Error())
		return
	}
	st.ID = b.Name + "." + st.ID
	code := http.StatusOK
	if result && st.State != server.StateDone && st.State != server.StateFailed {
		code = http.StatusAccepted
	}
	server.WriteJSON(w, code, st)
}

func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	r.proxyJob(w, req, false)
}

func (r *Router) handleResult(w http.ResponseWriter, req *http.Request) {
	r.proxyJob(w, req, true)
}

func (r *Router) handleTechniques(w http.ResponseWriter, req *http.Request) {
	// The registry is compiled into the router binary itself; no need
	// to burn a backend round trip on it.
	server.WriteJSON(w, http.StatusOK, map[string]any{"techniques": dfm.Techniques()})
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
