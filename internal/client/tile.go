package client

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/server"
	"repro/internal/tiling"
)

// TileFailed marks a tile job that the serving node settled as failed
// (worker fault, timeout, drain rejection of a queued job). The work
// unit itself may be fine — another node, or the same node later, can
// succeed — so the submitter treats it as retryable.
type TileFailed struct {
	ID  string
	Msg string
}

func (e *TileFailed) Error() string {
	return fmt.Sprintf("dfmd: tile job %s failed: %s", e.ID, e.Msg)
}

// errKeyMismatch marks a tile job whose node filed it under another
// content address than the client computed. The same unit hashes the
// same way every time, so it is not worth another attempt.
var errKeyMismatch = errors.New("dfmd: client and node disagree on a tile unit's content address")

// EvalTile submits one tile work unit and blocks until it settles,
// decoding the settled status into the tiling engine's result form.
// If the server-side wait was cut short (proxy deadline upstream), it
// falls back to polling the job it already paid to enqueue rather than
// resubmitting — the satellite of the 202-on-wait-cancel contract.
//
// The unit is keyed here, before any byte leaves: the key is the claim
// a router places the unit by, and a unit this build cannot key is one
// no node of this build will accept. The settled status must carry the
// same key. The node keys what it decoded, never the claim, so a
// mismatch means the node hashes units differently from this client —
// version skew — and its result would be filed, here and in every cache
// between, under an address that means something else: the unit fails.
func (c *Client) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	jr := server.JobRequest{Kind: server.KindTile, Tile: req}
	claim, err := server.KeyForRequest(jr)
	if err != nil {
		return nil, tiling.TileServed{}, err
	}
	st, err := c.eval(ctx, jr, claim)
	if err != nil {
		return nil, tiling.TileServed{}, err
	}
	if st.State != server.StateDone && st.State != server.StateFailed {
		if st, err = c.Wait(ctx, st.ID, 0); err != nil {
			return nil, tiling.TileServed{}, err
		}
	}
	served := tiling.TileServed{Cached: st.Cached, Deduped: st.Deduped}
	if st.Key != claim {
		return nil, served, fmt.Errorf("%w: job %s settled under %q, this client keyed the unit %q", errKeyMismatch, st.ID, st.Key, claim)
	}
	if st.State == server.StateFailed {
		return nil, served, &TileFailed{ID: st.ID, Msg: st.Error}
	}
	if st.Tile == nil {
		return nil, served, fmt.Errorf("dfmd: tile job %s settled done without a tile result", st.ID)
	}
	return st.Tile, served, nil
}

// TileSubmitter adapts Client to tiling.TileClient: one tile work unit
// per call, retried under the shared RetryPolicy with the same
// Retry-After-respecting backoff the load generator uses. Pointed at a
// dfmrouter base URL it inherits the fleet's failover and affinity for
// free — the router re-routes each attempt around dead backends, and
// this layer absorbs the residue (jobs that settled failed because a
// backend died mid-evaluation, 429 pushback, transport resets).
// Safe for concurrent use.
type TileSubmitter struct {
	C *Client
	// Policy is the per-unit retry budget; nil means one attempt.
	Policy *RetryPolicy
}

var _ tiling.TileClient = (*TileSubmitter)(nil)

// EvalTile implements tiling.TileClient.
func (ts *TileSubmitter) EvalTile(ctx context.Context, req *tiling.TileRequest) (tr *tiling.TileResult, served tiling.TileServed, err error) {
	err = ts.Policy.do(ctx, func() (err error) {
		tr, served, err = ts.C.EvalTile(ctx, req)
		return err
	})
	return tr, served, err
}
