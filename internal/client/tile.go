package client

import (
	"context"
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

// EvalTile submits one tile work unit and blocks until it settles,
// decoding the settled status into the tiling engine's result form.
// If the server-side wait was cut short (proxy deadline upstream), it
// falls back to polling the job it already paid to enqueue rather than
// resubmitting — the satellite of the 202-on-wait-cancel contract.
func (c *Client) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	st, err := c.Eval(ctx, server.JobRequest{Kind: server.KindTile, Tile: req})
	if err != nil {
		return nil, tiling.TileServed{}, err
	}
	if st.State != server.StateDone && st.State != server.StateFailed {
		if st, err = c.Wait(ctx, st.ID, 0); err != nil {
			return nil, tiling.TileServed{}, err
		}
	}
	served := tiling.TileServed{Cached: st.Cached, Deduped: st.Deduped}
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
