package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs            submit a JobRequest; answered 200 once the job settles
//	GET  /healthz            200 serving / 503 draining
//	GET  /metrics            server stats + obs registry snapshot
//
// Every body is JSON. Overload sheds with 429 plus a Retry-After
// header derived from live queue signals; a draining server answers
// 503 to new submissions.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// WriteJSON and WriteError are the one way either tier answers a
// request (dfmrouter calls them too), so content type, format and the
// error-body shape cannot drift between dfmd and the router. The format
// is json.Marshal's, compact, and a newline. The body is marshalled
// before the header goes, so the answer declares its length and is not
// chunked: a reader sizes its buffer once. A value that does not marshal
// is answered with code and no body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err == nil {
		b = append(b, '\n')
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
}

// WriteError answers code with an ErrorBody carrying msg.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorBody{Error: msg})
}

// WriteOverloaded answers a shed the one way both tiers do: 429 with
// msg, the hint — the live estimate of when queue room frees up — in
// the body to the millisecond, and in a Retry-After header in whole
// seconds, never below 1s: a sub-second hint would round to 0 there and
// send naive callers into a busy loop.
func WriteOverloaded(w http.ResponseWriter, msg string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", strconv.FormatInt(max(int64(retryAfter/time.Second), 1), 10))
	WriteJSON(w, http.StatusTooManyRequests, ErrorBody{Error: msg, RetryAfterMS: retryAfter.Milliseconds()})
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
	b, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	if err == nil {
		return b, true
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

// ReadAnswer reads the body of an answer the way ReadJobBody reads a
// submission, under the same bound: client.Forward reads every answer
// through it, and dfmrouter relays every backend answer through that,
// so no backend can make a router or a client buffer without limit.
func ReadAnswer(resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxRequestBytes {
		return nil, fmt.Errorf("answer body declares %d bytes, the bound is %d", resp.ContentLength, maxRequestBytes)
	}
	b, err := readBody(io.LimitReader(resp.Body, maxRequestBytes+1), resp.ContentLength)
	if err == nil && len(b) > maxRequestBytes {
		err = fmt.Errorf("answer body exceeds %d bytes", maxRequestBytes)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// readBody reads r to its end. A declared length sizes the buffer once,
// up to a bound a lying peer cannot turn into memory; past it the buffer
// grows with the bytes that actually arrive.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 {
		buf.Grow(int(min(declared, 1<<20)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
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
	j, retryAfter, err := s.submit(req)
	switch {
	case errors.Is(err, errDraining):
		WriteError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case errors.Is(err, errOverloaded):
		WriteOverloaded(w, "overloaded", retryAfter)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The caller is gone. Its evaluation runs on in its flight and
		// lands in the cache, where an identical resubmission finds it.
		return
	}
	WriteJobStatus(w, j.status())
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
