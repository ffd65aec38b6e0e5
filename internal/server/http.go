package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs            submit a JobRequest; ?wait=1 blocks for the result
//	GET  /v1/jobs/{id}       poll a job's status
//	GET  /healthz            200 serving / 503 draining
//	GET  /metrics            server stats + obs registry snapshot
//
// Every body is JSON. Overload sheds with 429 plus a Retry-After
// header derived from live queue signals; a draining server answers
// 503 to new submissions.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// WriteJSON and WriteError are the one way either tier answers a
// request (dfmrouter calls them too), so content type, indentation and
// the error-body shape cannot drift between dfmd and the router.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// WriteError answers code with an ErrorBody carrying msg.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorBody{Error: msg})
}

// maxRequestBytes bounds one POST /v1/jobs body. The largest real unit
// is a tile's extracted shape list, tens of kB as a packed column (a
// few hundred before tile schema 3); 64 MiB leaves three orders of
// magnitude of headroom while keeping a hostile or runaway client from
// making a node buffer without limit.
const maxRequestBytes = 64 << 20

// ReadJobBody reads a POST /v1/jobs body the one way both tiers do —
// dfmd to decode it, dfmrouter to forward it unread — so the size bound
// cannot drift between them: at most maxRequestBytes. On failure it has
// already answered, 413 for an oversize body and 400 for one that could
// not be read, and returns false.
func ReadJobBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		// A declared length sizes the buffer once, up to a bound a lying
		// client cannot turn into memory; past it the buffer grows with
		// the bytes that actually arrive.
		buf.Grow(int(min(n, 1<<20)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		return buf.Bytes(), true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return nil, false
}

// decodeJobRequest is the node's strict reading of a body: unknown
// fields rejected, here and (tiling's own codec) inside "tile".
func decodeJobRequest(body []byte) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// writeStatus answers with a job status, with beside it what a router
// in the path asked for and needs: the ID under the prefix r names, and
// the kind and reuse flags repeated as headers.
func writeStatus(w http.ResponseWriter, r *http.Request, code int, st JobStatus) {
	st.ID = idPrefix(r) + st.ID
	if st.Kind != "" {
		w.Header().Set(HeaderJobKind, st.Kind)
	}
	if st.Cached || st.Deduped {
		w.Header().Set(HeaderJobReused, "1")
	}
	WriteJSON(w, code, st)
}

// idPrefix is the job-ID prefix r asks for: a short run of the
// characters backend names are made of, or none. Anything else is
// ignored rather than echoed into an answer.
func idPrefix(r *http.Request) string {
	p := r.Header.Get(HeaderIDPrefix)
	if len(p) > 32 {
		return ""
	}
	for _, c := range []byte(p) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '-' || c == '_') {
			return ""
		}
	}
	return p
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadJobBody(w, r)
	if !ok {
		return
	}
	req, err := decodeJobRequest(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	st, retryAfter, err := s.submit(req)
	switch {
	case errors.Is(err, errDraining):
		WriteError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case errors.Is(err, errOverloaded):
		// Retry-After is the live estimate of when queue room frees
		// up, never below 1s (the header is whole seconds).
		secs := int64(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		WriteJSON(w, http.StatusTooManyRequests, ErrorBody{
			Error:        "overloaded",
			RetryAfterMS: retryAfter.Milliseconds(),
		})
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.URL.Query().Get("wait") != "" {
		ws, ok, werr := s.wait(r.Context(), st.ID)
		if werr != nil {
			// The wait was cut short (client gone, proxy deadline), but
			// the job was admitted and is still running. Answer 202
			// with the job's current status — an anonymous 408 here
			// would strand the job: the client could never poll or
			// de-duplicate what it already paid to enqueue.
			if cur, stillOK := s.Job(st.ID); stillOK {
				st = cur
			}
			writeStatus(w, r, http.StatusAccepted, st)
			return
		}
		if ok {
			st = ws
		}
	}
	code := http.StatusAccepted
	if st.State == StateDone || st.State == StateFailed {
		code = http.StatusOK
	}
	writeStatus(w, r, code, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeStatus(w, r, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metricsBody is the /metrics payload: always-on server stats plus
// the obs registry snapshot (zeroed unless the registry is enabled).
type metricsBody struct {
	Server   Stats        `json:"server"`
	Registry obs.Snapshot `json:"registry"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, metricsBody{
		Server:   s.Stats(),
		Registry: obs.Default().Snapshot(),
	})
}
