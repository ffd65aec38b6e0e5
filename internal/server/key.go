package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/dfm"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// keySchema versions the canonical key payload; bump it whenever the
// payload shape or any evaluator's semantics change, so stale cache
// entries from an older build can never alias new requests.
// Schema 2: the aerial image's rounding changed (the blur sums a
// y-band's column profiles before scaling them, EXPERIMENTS.md R43), so
// stale cache entries must not alias.
const keySchema = 2

// keyPayload is the canonical content of a request: everything that
// determines the evaluation result, nothing that does not (timeouts
// and retry policy change whether a result arrives, not its value).
// Field order is fixed by the struct, and encoding/json emits it
// deterministically, so the marshaled bytes are a canonical form.
type keyPayload struct {
	Schema    int       `json:"schema"`
	Technique string    `json:"technique"`
	Tech      tech.Tech `json:"tech"` // full node params, not just the name
	Seed      int64     `json:"seed"`
	Rows      int       `json:"rows"`
	RowWidth  int64     `json:"rowWidth"`
	Nets      int       `json:"nets"`
	MaxFan    int       `json:"maxFan"`
}

// resolved is what a JobRequest means once the fields of its kind have
// been validated: the content address every layer keys on and the kind
// as job statuses report it.
type resolved struct {
	key  string
	kind string // "" for technique evaluations, KindTile for tile units
}

// resolve is the one per-kind reading of a request, shared by
// Server.submit and KeyForRequest so that the key a client claims and
// the key a node files the job under come from the same code. Each kind
// reads only its own fields: a tile job carries its full tech node
// inside the TileRequest, so Technique and Seed are neither consulted
// nor checked for it.
func resolve(req JobRequest) (resolved, error) {
	switch req.Kind {
	case "", KindEval:
		return resolved{key: requestKey(req.Technique, req.Seed)}, nil
	case KindTile:
		// The tiling engine's own hash (which validates the payload,
		// canonical order included, on the way), so the server cache
		// and singleflight see the exact key the local tile cache would
		// use — computed here from what was decoded, whatever key the
		// client claimed to the router.
		if req.Tile == nil {
			return resolved{}, errors.New("tile job missing tile payload")
		}
		key, err := tileRequestKey(req.Tile)
		return resolved{key: key, kind: KindTile}, err
	}
	return resolved{}, fmt.Errorf("unknown job kind %q", req.Kind)
}

// KeyForRequest computes the content address a server would assign
// this request, without submitting it. It is the one producer of the
// claim a client sends beside a submission (HeaderRouteKey), by which
// dfmrouter's placement steers duplicate work to the backend
// that already holds the cached result; because it is the same resolve
// the server runs, an honest claim and the server-side key can never
// disagree — and client.EvalTile fails a unit whose settled key does.
func KeyForRequest(req JobRequest) (string, error) {
	r, err := resolve(req)
	return r.key, err
}

// tileRequestKey renders the tiling engine's content address in the
// server's key form. No schema wrapper of its own: the tiling hash is
// already schema-versioned and covers the full config, and reusing it
// verbatim is what lets the engine's local cache, the server cache,
// and the claim the router places by all agree on "same tile".
func tileRequestKey(tr *tiling.TileRequest) (string, error) {
	k, err := tr.Key()
	if err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(k[:]), nil
}

// requestKey returns the content address of a technique evaluation:
// "sha256:<hex>" over the canonical payload, filled with the N45 node
// and the default block it runs on. Two requests with the same key are
// the same work — the dedup and cache layers key on it. The payload
// carries every N45 parameter and the block shape, so retuning either
// in code changes the key.
func requestKey(technique string, seed int64) string {
	base := dfm.DefaultBlock()
	p := keyPayload{
		Schema:    keySchema,
		Technique: technique,
		Tech:      *tech.N45(),
		Seed:      seed,
		Rows:      base.Rows,
		RowWidth:  base.RowWidth,
		Nets:      base.Nets,
		MaxFan:    base.MaxFan,
	}
	b, err := json.Marshal(p)
	if err != nil {
		// Marshal of a plain struct of numbers/strings/slices cannot
		// fail; a panic here means the payload type grew a channel.
		panic("server: request key marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}
