package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"

	"repro/internal/tiling"
)

// The job envelope on the wire. jobRequestWire and jobStatusWire are
// JobRequest and JobStatus with the tile in another form: the
// shallower Tile field shadows the embedded one and, both being the
// last field, stands in its place. A job is written with the tile
// packed (tiling.RequestWire, tiling.ResultWire), which holds no
// json.Marshaler, so encoding/json writes it in one pass, columns
// included. It is read with the tile held raw, then the tile by
// tiling's strict reader, the one way a tile is read, so a refusal says
// whether it is about the tile and which field of it.
// testdata/jobwire.golden pins the bytes, what each reading takes, and
// the text it answers a body it refuses with.
type (
	jobRequestWire[T any] struct {
		JobRequest
		Tile T `json:"tile,omitempty"`
	}
	jobStatusWire[T any] struct {
		JobStatus
		Tile T `json:"tile,omitempty"`
	}
)

// EncodeJobRequest is a submission's body, as a client sends it.
func EncodeJobRequest(req JobRequest) ([]byte, error) {
	return json.Marshal(jobRequestWire[*tiling.RequestWire]{JobRequest: req, Tile: tiling.PackRequest(req.Tile)})
}

// WriteJobStatus answers a settled job: its kind and reuse flags as
// headers, for a router in the path to count without reading the body,
// then the status, its tile packed.
func WriteJobStatus(w http.ResponseWriter, st JobStatus) {
	if st.Kind != "" {
		w.Header().Set(HeaderJobKind, st.Kind)
	}
	if st.Cached || st.Deduped {
		w.Header().Set(HeaderJobReused, "1")
	}
	WriteJSON(w, http.StatusOK, jobStatusWire[*tiling.ResultWire]{JobStatus: st, Tile: tiling.PackResult(st.Tile)})
}

// decodeJobRequest is the node's strict reading of a body: unknown
// fields rejected at every level, "tile" included.
func decodeJobRequest(body []byte) (JobRequest, error) {
	var w jobRequestWire[json.RawMessage]
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := asPlain(dec.Decode(&w), reflect.TypeOf(w), reflect.TypeOf(w.JobRequest))
	if w.JobRequest.Tile, err = readTile(w.Tile, err, tiling.ReadRequest); err != nil {
		return JobRequest{}, err
	}
	return w.JobRequest, nil
}

// DecodeJobStatus reads a job answer as json.Unmarshal reads a
// JobStatus: strictly inside "tile", and leniently beside it, so that a
// client reads the answer of a node that has grown a field.
func DecodeJobStatus(body []byte) (JobStatus, error) {
	var w jobStatusWire[json.RawMessage]
	err := asPlain(json.Unmarshal(body, &w), reflect.TypeOf(w), reflect.TypeOf(w.JobStatus))
	if w.JobStatus.Tile, err = readTile(w.Tile, err, tiling.ReadResult); err != nil {
		return JobStatus{}, err
	}
	return w.JobStatus, nil
}

// readTile reads a job's raw tile with read, given err, how reading the
// members beside it went. The tile's own error comes first, as it did
// when the tile type read itself and encoding/json stopped at it.
func readTile[T any](raw json.RawMessage, err error, read func([]byte) (*T, error)) (*T, error) {
	if len(raw) == 0 {
		return nil, err
	}
	tile, tileErr := read(raw)
	if tileErr != nil {
		return nil, tileErr
	}
	return tile, err
}

// asPlain restates a type error in reading an envelope as reading the
// plain type has always stated it: encoding/json names the envelope,
// and the plain type's embedded field in the path.
func asPlain(err error, envelope, plain reflect.Type) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		if te.Type == envelope {
			te.Type = plain
		}
		if te.Struct == envelope.Name() {
			te.Struct = plain.Name()
		}
		te.Field = strings.TrimPrefix(te.Field, plain.Name()+".")
	}
	return err
}
