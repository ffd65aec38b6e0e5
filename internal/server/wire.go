package server

import (
	"bytes"
	"encoding/json"
	"io"

	"repro/internal/tiling"
)

// The job envelope on the wire. jobRequestWire and jobStatusWire are
// JobRequest and JobStatus with the tile in its packed form
// (tiling.RequestWire, tiling.ResultWire): the shallower Tile field
// shadows the embedded one, and, both being the last field, writes in
// its place. Neither form holds a json.Marshaler, so encoding/json
// writes a job and strictly reads one in one pass over it, base64
// columns included; a Marshaler nested in the envelope is compacted,
// skipped and re-decoded at every level. The bytes are json.Marshal's
// of the plain types, exactly (TestJobWireMatchesEncodingJSON).
type (
	jobRequestWire struct {
		JobRequest
		Tile *tiling.RequestWire `json:"tile,omitempty"`
	}
	jobStatusWire struct {
		JobStatus
		Tile *tiling.ResultWire `json:"tile,omitempty"`
	}
)

// packStatus is the envelope an answer is written from.
func packStatus(st JobStatus) jobStatusWire {
	return jobStatusWire{JobStatus: st, Tile: tiling.PackResult(st.Tile)}
}

// EncodeJobRequest is a submission's body, as a client sends it.
func EncodeJobRequest(req JobRequest) ([]byte, error) {
	return json.Marshal(jobRequestWire{JobRequest: req, Tile: tiling.PackRequest(req.Tile)})
}

// decodeJobRequest is the node's strict reading of a body: unknown
// fields rejected at every level, "tile" included.
func decodeJobRequest(body []byte) (JobRequest, error) {
	var w jobRequestWire
	_, err := strictDecode(body, &w)
	if err == nil {
		w.JobRequest.Tile, err = w.Tile.Unpack()
	}
	if err != nil {
		// A body the packed reading refuses is read again the plain way,
		// through the tile's own UnmarshalJSON, so that a 400 says what it
		// always has: which column holds bad base64, or, for a column
		// spelled as another schema spells it, which schema the unit
		// declares.
		if _, plain := strictDecode(body, new(JobRequest)); plain != nil {
			err = plain
		}
		return JobRequest{}, err
	}
	return w.JobRequest, nil
}

// DecodeJobStatus reads a job answer as json.Unmarshal reads it into a
// JobStatus: strict inside "tile", lenient beside it, so that a client
// reads the answer of a node that has grown a field.
func DecodeJobStatus(body []byte) (JobStatus, error) {
	var w jobStatusWire
	if dec, err := strictDecode(body, &w); err == nil {
		if _, end := dec.Token(); end == io.EOF {
			if w.JobStatus.Tile, err = w.Tile.Unpack(); err == nil {
				return w.JobStatus, nil
			}
		}
	}
	// A field this build does not know, data after the answer, or a body
	// it cannot read: the plain reading decides, and says why.
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// strictDecode decodes the first JSON value of body into v, rejecting
// unknown fields, and returns the decoder positioned after it.
func strictDecode(body []byte, v any) (*json.Decoder, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec, dec.Decode(v)
}
