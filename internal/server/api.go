// Package server is the serving layer over the DFM evaluation stack:
// a long-lived HTTP JSON service (`cmd/dfmd`) that accepts technique
// evaluation jobs, schedules them on a persistent harness worker
// pool behind a bounded admission queue, deduplicates identical
// in-flight requests (singleflight), and answers repeated layouts
// from a content-addressed result cache. The in-design DFM-scoring
// systems the paper discussion points at (shared rule-scoring and
// litho-friendliness checkers) are exactly this shape: many
// designers hammer one checking service with overlapping layouts,
// and caching plus queueing — not kernel speed — set the latency
// they see.
package server

import (
	"repro/internal/dfm"
	"repro/internal/tiling"
)

// Job kinds. The empty string and KindEval both mean a technique
// evaluation — the wire shape dfmd has always spoken; KindTile is one
// full-chip tile work unit (tiling.TileRequest), keyed by the tiling
// engine's own content address so identical tiles from different
// chips collapse in the cache and singleflight layers like duplicate
// technique requests always have.
const (
	KindEval = "eval"
	KindTile = "tile"
)

// Headers that travel beside a job's JSON, so that a dfmrouter in the
// path can place a submission and count the outcome without decoding
// the body in either direction (DESIGN.md, "Router pass-through"). A
// bare dfmd honours the same headers; a client that sends none is
// served all the same.
const (
	// HeaderRouteKey, on a submission, is the client's claim of the
	// request's content address (KeyForRequest). The router places the
	// job by it. It is placement, never identity:
	// a node does not read it, and keys what it decoded.
	HeaderRouteKey = "Dfm-Route-Key"
	// HeaderJobKind and HeaderJobReused, on a job answer, repeat the
	// status's Kind (absent for technique evaluations) and whether it
	// was Cached or Deduped ("1", else absent): what the router's tile
	// accounting counts.
	HeaderJobKind   = "Dfm-Job-Kind"
	HeaderJobReused = "Dfm-Job-Reused"
)

// JobRequest is one job. A technique evaluation is a technique and a
// seed: the technique applied to the default block (dfm.DefaultBlock)
// generated from the seed, on the N45 node. Identical requests are
// identical work — the service collapses them in flight and caches
// their result. Every job runs under the server's DefaultTimeout.
type JobRequest struct {
	// Kind selects the job type: "" or "eval" evaluates Technique on
	// the generated workload; "tile" executes the Tile work unit.
	Kind string `json:"kind,omitempty"`

	// Technique is one of dfm.Techniques().
	Technique string `json:"technique,omitempty"`
	// Seed drives workload generation; same seed, same layout.
	Seed int64 `json:"seed"`

	// Tile is the tile work unit (Kind "tile"); Technique and Seed are
	// ignored — everything that determines a tile result, its full
	// tech node included, travels inside the TileRequest.
	Tile *tiling.TileRequest `json:"tile,omitempty"`
}

// Job states: every answer to a submission is a settled job.
const (
	StateDone   = "done"
	StateFailed = "failed"
)

// JobStatus is the answer to one submission, given once the job
// settles. Its Key is the job's only identity: an identical submission
// joins the evaluation while it runs and hits the cache after.
type JobStatus struct {
	State string `json:"state"`
	// Kind mirrors the request kind; empty for technique evaluations,
	// so pre-tile clients see an unchanged wire shape.
	Kind string `json:"kind,omitempty"`
	// Key is the content address of the request ("sha256:<hex>").
	Key string `json:"key"`
	// Cached marks a job answered from the result cache; Deduped
	// marks one that joined an identical in-flight evaluation.
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
	// Result is the technique outcome, set when done (and when failed
	// with a partial outcome); Error carries the failure summary for
	// failed jobs. Tile jobs settle into Tile instead. Tile is the last
	// field, as it is JobRequest's, so that the packed envelope
	// (jobStatusWire) shadows it in place; a job that carries a tile
	// never carries an error.
	Result *dfm.OutcomeView   `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`
	Tile   *tiling.TileResult `json:"tile,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses: the server's live
	// estimate of when queue space frees up.
	RetryAfterMS int64 `json:"retryAfterMs,omitempty"`
}
