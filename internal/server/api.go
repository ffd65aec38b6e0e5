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
	"fmt"

	"repro/internal/dfm"
	"repro/internal/layout"
	"repro/internal/tech"
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
// path can place a submission, name the job and count the outcome
// without decoding the body in either direction (DESIGN.md, "Router
// pass-through"). A bare dfmd honours the same headers; a client that
// sends none is served all the same.
const (
	// HeaderRouteKey, on a submission, is the client's claim of the
	// request's content address (KeyForRequest). The router places the
	// job on its affinity ring by it. It is placement, never identity:
	// a node does not read it, and keys what it decoded.
	HeaderRouteKey = "Dfm-Route-Key"
	// HeaderIDPrefix, on any job request, is prepended by the node to
	// the job ID in its answer: the router sends "<backend>." so the ID
	// a client holds routes its polls back to the node that owns the job.
	HeaderIDPrefix = "Dfm-Id-Prefix"
	// HeaderJobKind and HeaderJobReused, on a job answer, repeat the
	// status's Kind (absent for technique evaluations) and whether it
	// was Cached or Deduped ("1", else absent): what the router's tile
	// accounting counts.
	HeaderJobKind   = "Dfm-Job-Kind"
	HeaderJobReused = "Dfm-Job-Reused"
)

// BlockSpec is the wire form of the synthetic workload shape
// (layout.BlockOpts minus the seed, which travels separately so
// retries can perturb it).
type BlockSpec struct {
	Rows     int   `json:"rows"`
	RowWidth int64 `json:"rowWidth"`
	Nets     int   `json:"nets"`
	MaxFan   int   `json:"maxFan"`
}

// JobRequest is one evaluation request: a technique applied to a
// deterministic workload on a named process node. Identical requests
// (same technique, tech, seed, block) are identical work — the
// service collapses them in flight and caches their result.
type JobRequest struct {
	// Kind selects the job type: "" or "eval" evaluates Technique on
	// the generated workload; "tile" executes the Tile work unit.
	Kind string `json:"kind,omitempty"`

	// Technique is one of dfm.Techniques().
	Technique string `json:"technique,omitempty"`
	// Tech names the process node: "N45" (default) or "N45R".
	Tech string `json:"tech,omitempty"`
	// Seed drives workload generation; same seed, same layout.
	Seed int64 `json:"seed"`
	// Block overrides the default workload shape (dfm.DefaultBlock).
	Block *BlockSpec `json:"block,omitempty"`

	// Tile is the tile work unit (Kind "tile"); the technique fields
	// above are ignored — everything that determines a tile result,
	// its full tech node included, travels inside the TileRequest.
	Tile *tiling.TileRequest `json:"tile,omitempty"`

	// TimeoutMS caps the evaluation wall clock; 0 uses the server
	// default, and the server clamps it to its configured maximum.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the poll/submit response for one job.
type JobStatus struct {
	ID    string `json:"id"`
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
	// Result is set once State is done (or failed with a partial
	// outcome); Error carries the failure summary for failed jobs.
	// Tile jobs settle into Tile instead.
	Result *dfm.OutcomeView   `json:"result,omitempty"`
	Tile   *tiling.TileResult `json:"tile,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses: the server's live
	// estimate of when queue space frees up.
	RetryAfterMS int64 `json:"retryAfterMs,omitempty"`
}

// resolveTech maps the wire tech name to a node.
func resolveTech(name string) (*tech.Tech, error) {
	switch name {
	case "", "N45":
		return tech.N45(), nil
	case "N45R":
		return tech.N45R(), nil
	}
	return nil, fmt.Errorf("unknown tech %q (want N45 or N45R)", name)
}

// resolveBlock applies the request's block override to the default
// workload shape and validates it.
func resolveBlock(spec *BlockSpec) (layout.BlockOpts, error) {
	base := dfm.DefaultBlock()
	if spec == nil {
		return base, nil
	}
	if spec.Rows <= 0 || spec.RowWidth <= 0 || spec.Nets < 0 || spec.MaxFan < 0 {
		return base, fmt.Errorf("invalid block spec %+v", *spec)
	}
	base.Rows = spec.Rows
	base.RowWidth = spec.RowWidth
	base.Nets = spec.Nets
	base.MaxFan = spec.MaxFan
	return base, nil
}
