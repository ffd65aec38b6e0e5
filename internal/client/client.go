// Package client is the Go client for the dfmd evaluation service:
// typed calls over the server's HTTP JSON API (a submission answered
// with its settled job, the health probe, the metrics), with overload
// (429) surfaced as a structured error carrying the server's
// Retry-After hint so callers can implement their own backoff or, like
// the load generator, account the shed and move on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// MinRetryAfter is the floor applied to server retry hints. A zero or
// missing hint must never reach callers: naive retry loops would spin
// on it, hammering a server that just said it was overloaded.
const MinRetryAfter = 100 * time.Millisecond

// Overloaded is the typed form of a 429 shed.
type Overloaded struct {
	// RetryAfter is the server's live estimate of when queue room
	// frees up.
	RetryAfter time.Duration
}

func (e *Overloaded) Error() string {
	return fmt.Sprintf("dfmd overloaded, retry after %v", e.RetryAfter)
}

// ErrDraining marks a 503 from a server that is shutting down.
var ErrDraining = errors.New("dfmd draining")

// StatusError is any other non-2xx answer.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("dfmd: http %d: %s", e.Code, e.Msg)
}

// Client talks to one dfmd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the given base URL (e.g.
// "http://127.0.0.1:9517"). httpClient nil uses a dedicated default
// client with no global timeout (per-call ctx governs).
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Reply is one answer as it arrived: status, headers, and the body
// undecoded.
type Reply struct {
	Code   int
	Header http.Header
	Body   []byte
}

// Forward sends body (nil for none) as it is, with header beside the
// JSON content type, and returns the answer as it is. It is the one HTTP
// exchange under every typed call here, and dfmrouter's whole data
// path: the router relays requests and answers it never decodes. A
// non-2xx answer is the typed error the typed calls return — Overloaded
// with the server's hint, ErrDraining, StatusError — and no Reply.
func (c *Client) Forward(ctx context.Context, method, path string, header http.Header, body []byte) (*Reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	// Read to the end before closing, on every path: a body closed with
	// bytes unread takes its connection down with it — one TCP handshake
	// per response instead of one per client. An answer ReadAnswer takes
	// is read whole, to the length it declares; an error body decoded
	// below leaves at least the newline WriteJSON ends it with, which the
	// drain reads. What is left of an answer refused as oversize is not
	// read: that connection goes.
	defer func() {
		io.CopyN(io.Discard, resp.Body, drainBytes) //nolint:errcheck // best-effort, for reuse
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		var eb server.ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb) //nolint:errcheck // best-effort detail
		// The JSON hint carries millisecond precision; the header is
		// whole seconds, so a sub-second hint would round to 0 there
		// and send naive callers into a busy loop. Prefer the JSON
		// field, fall back to the header (fractional values allowed),
		// and clamp whatever survives to a sane floor.
		ra := time.Duration(eb.RetryAfterMS) * time.Millisecond
		if ra == 0 {
			if secs, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64); err == nil && secs > 0 {
				ra = time.Duration(secs * float64(time.Second))
			}
		}
		if ra < MinRetryAfter {
			ra = MinRetryAfter
		}
		return nil, &Overloaded{RetryAfter: ra}
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, ErrDraining
	case resp.StatusCode >= 400:
		var eb server.ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb) //nolint:errcheck // best-effort detail
		return nil, &StatusError{Code: resp.StatusCode, Msg: eb.Error}
	}
	b, err := server.ReadAnswer(resp)
	if err != nil {
		return nil, err
	}
	return &Reply{Code: resp.StatusCode, Header: resp.Header, Body: b}, nil
}

// drainBytes bounds what Forward reads of an answer past what it uses:
// an error body's remainder, not a stream that runs on.
const drainBytes = 64 << 10

// get is Forward of a GET, the answer decoded into out (nil for none).
func (c *Client) get(ctx context.Context, path string, out any) error {
	rep, err := c.Forward(ctx, http.MethodGet, path, nil, nil)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(rep.Body, out)
}

// eval submits one job and returns its settled status, stating the
// job's content address beside it (server.HeaderRouteKey) so that a
// dfmrouter in the path can place it on the affinity ring without
// parsing it. claim "" sends no header, and the router places the bytes
// by their own hash. Both ends go through the server's own job codec,
// which carries a tile in its packed form.
func (c *Client) eval(ctx context.Context, req server.JobRequest, claim string) (server.JobStatus, error) {
	var header http.Header
	if claim != "" {
		header = http.Header{server.HeaderRouteKey: {claim}}
	}
	body, err := server.EncodeJobRequest(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	rep, err := c.Forward(ctx, http.MethodPost, "/v1/jobs", header, body)
	if err != nil {
		return server.JobStatus{}, err
	}
	return server.DecodeJobStatus(rep.Body)
}

// Eval submits a job and returns its settled status. A request
// KeyForRequest refuses is sent unclaimed: it is the node's to refuse,
// with the node's own message.
func (c *Client) Eval(ctx context.Context, req server.JobRequest) (server.JobStatus, error) {
	claim, _ := server.KeyForRequest(req) //nolint:errcheck // see above
	return c.eval(ctx, req, claim)
}

// Healthz reports nil when the server is accepting work.
func (c *Client) Healthz(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil)
}

// readyPoll is how often WaitReady asks.
const readyPoll = 25 * time.Millisecond

// WaitReady polls Healthz until the server accepts work. When ctx ends
// first it returns the last probe's error.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		err := c.Healthz(ctx)
		if err == nil {
			return nil
		}
		t := time.NewTimer(readyPoll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// Metrics fetches the server stats and registry snapshot.
func (c *Client) Metrics(ctx context.Context) (server.Stats, json.RawMessage, error) {
	var body struct {
		Server   server.Stats    `json:"server"`
		Registry json.RawMessage `json:"registry"`
	}
	err := c.get(ctx, "/metrics", &body)
	return body.Server, body.Registry, err
}
