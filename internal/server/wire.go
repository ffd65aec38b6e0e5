package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// included. It is read the same way: one strict pass into the same
// envelope decodes the columns in place, and tiling.UnpackRequest or
// UnpackResult unpacks them (onePass). A body that pass does not take
// is read in two stages, the tile held raw, then by tiling's strict
// reader, so a refusal says whether it is about the tile and which
// field of it; that reading alone decides such a body.
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
// fields rejected at every level, "tile" included, and so is anything
// but white space after the request. A body the one pass takes is read
// once; readJobRequest alone decides whether any other is taken, and
// words its refusal.
func decodeJobRequest(body []byte) (JobRequest, error) {
	if req, ok := requestOnce(body); ok {
		return req, nil
	}
	return readJobRequest(body)
}

// requestOnce is decodeJobRequest's one pass, and whether it takes body.
func requestOnce(body []byte) (JobRequest, bool) {
	var w jobRequestWire[*tiling.RequestWire]
	if !onePass(body, &w) {
		return JobRequest{}, false
	}
	tile, err := tiling.UnpackRequest(w.Tile)
	w.JobRequest.Tile = tile
	return w.JobRequest, err == nil
}

// readJobRequest is decodeJobRequest in two stages: the envelope with
// the tile held raw, in json.Unmarshal's words, then the tile by
// tiling.ReadRequest, so a refusal says whether it is about the tile
// and which field of it. Only the bytes after the request are read for
// what follows it.
func readJobRequest(body []byte) (JobRequest, error) {
	var w jobRequestWire[json.RawMessage]
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := asPlain(dec.Decode(&w), reflect.TypeOf(w), reflect.TypeOf(w.JobRequest))
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); err == nil && len(rest) > 0 {
		err = fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	if w.JobRequest.Tile, err = readTile(w.Tile, err, tiling.ReadRequest); err != nil {
		return JobRequest{}, err
	}
	return w.JobRequest, nil
}

// DecodeJobStatus reads a job answer as json.Unmarshal reads a
// JobStatus: strictly inside "tile", and leniently beside it, so that a
// client reads the answer of a node that has grown a field. Like
// decodeJobRequest it reads a body once when the one pass takes it,
// and leaves any other to readJobStatus.
func DecodeJobStatus(body []byte) (JobStatus, error) {
	if st, ok := statusOnce(body); ok {
		return st, nil
	}
	return readJobStatus(body)
}

// statusOnce is DecodeJobStatus's one pass, and whether it takes body.
func statusOnce(body []byte) (JobStatus, bool) {
	var w jobStatusWire[*tiling.ResultWire]
	if !onePass(body, &w) {
		return JobStatus{}, false
	}
	tile, err := tiling.UnpackResult(w.Tile)
	w.JobStatus.Tile = tile
	return w.JobStatus, err == nil
}

// readJobStatus is DecodeJobStatus in two stages, as readJobRequest.
func readJobStatus(body []byte) (JobStatus, error) {
	var w jobStatusWire[json.RawMessage]
	err := asPlain(json.Unmarshal(body, &w), reflect.TypeOf(w), reflect.TypeOf(w.JobStatus))
	if w.JobStatus.Tile, err = readTile(w.Tile, err, tiling.ReadResult); err != nil {
		return JobStatus{}, err
	}
	return w.JobStatus, nil
}

// onePass decodes body into the envelope w in one strict encoding/json
// pass, its tile's columns included, and reports whether it takes the
// body: no error, no unknown field at any level, nothing but white
// space after the value, and member names that mean to encoding/json
// what they mean to the two-stage readings (oneTile). A body it takes,
// those read alike; anything else they read alone.
func onePass(body []byte, w any) bool {
	if !oneTile(body) {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(w) != nil {
		return false
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) == 0
}

// oneTile reports whether body spells no member name with an escape
// and names "tile" once at most, in any case. Of a repeated tile the
// two-stage readings keep the last whole, where encoding/json merges
// the objects into one; an escaped name may be "tile" unrecognized.
// Only member names are looked at: an escape in a value, such as the
// \u003c encoding/json writes for '<', is no reason to read twice. A
// body that is not JSON may be misread here; the decode refuses it.
func oneTile(body []byte) bool {
	tiles := 0
	for i := 0; ; {
		open := bytes.IndexByte(body[i:], '"')
		if open < 0 {
			return true
		}
		start := i + open + 1
		end := stringEnd(body, start)
		if end < 0 {
			return true
		}
		i = end + 1
		rest := bytes.TrimLeft(body[i:], " \t\r\n")
		if len(rest) == 0 || rest[0] != ':' {
			continue // a value
		}
		name := body[start:end]
		if bytes.IndexByte(name, '\\') >= 0 {
			return false
		}
		if bytes.EqualFold(name, []byte("tile")) {
			if tiles++; tiles > 1 {
				return false
			}
		}
	}
}

// stringEnd is the index of the quote that closes the JSON string whose
// first byte is body[start], or -1 if none does.
func stringEnd(body []byte, start int) int {
	for i := start; ; {
		q := bytes.IndexByte(body[i:], '"')
		if q < 0 {
			return -1
		}
		i += q
		escapes := 0
		for escapes < i-start && body[i-1-escapes] == '\\' {
			escapes++
		}
		if escapes%2 == 0 {
			return i
		}
		i++
	}
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
