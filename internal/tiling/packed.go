package tiling

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Tile wire format, schema 4. A unit's bulk geometry (Windows, Shapes,
// Rects) and its bulk output (Violations, Dens) cross the wire as
// packed byte columns — base64 strings inside the same JSON envelope
// the scalar fields always used — because spelling each shape as
// {"Layer":3,"R":{"X0":…},"Net":5} made reflective JSON decoding cost
// more than the DRC deck it fed. A column is a uvarint record count,
// then per record, in the order given:
//
//	rect       zigzag(x0-prev.x0) zigzag(y0-prev.y0) zigzag(x1-x0) zigzag(y1-y0)
//	shape      uvarint(layer) rect zigzag(net)
//	violation  uvarint(layer) rect(marker) uvarint(rule) uvarint(detail)
//	dens row   uvarint(n) then n little-endian IEEE-754 bit patterns
//
// prev starts at (0,0); deltas wrap in int64 and wrap back. A request's
// shapes and rects are in canonical order (schema 4; key.go), so their
// x0 deltas within a layer are never negative and pack small; the codec
// itself keeps whatever order it is given and leaves order to Validate.
// Rule and Detail index the result's "strings" table. The Go field types are
// unchanged: only the packed forms below (RequestWire, ResultWire) know
// the layout, and the content address (key.go) hashes geometry, never
// these bytes. The serving tiers carry the packed forms in their job
// envelope; MarshalJSON/UnmarshalJSON are adapters over the same codec
// for everything else.
//
// The decoder keeps three properties the plain form had for free:
// unknown fields are rejected (an envelope holding a packed form is read
// with DisallowUnknownFields, which reaches inside it; UnmarshalJSON,
// which encoding/json does not carry that setting into, builds its own
// strict decoder); a declared count is checked against the bytes
// actually present before anything is allocated; and values that are
// merely wrong — an inverted rect, layer 200 — decode, so Validate
// rejects them with its own message. An empty column is omitted and
// decodes to nil, never to an empty non-nil slice.

// plainRequest and plainResult have the wire types' fields and none of
// their methods, so the envelope structs marshal without recursing.
type (
	plainRequest TileRequest
	plainResult  TileResult
)

// RequestWire is a TileRequest in the form it crosses the wire: every
// scalar field of the embedded struct, with the three geometry fields
// shadowed by their packed columns (the shallower field wins a JSON
// name). It has no JSON methods, so an envelope that holds one — the
// serving tiers' job envelope — is written and strictly read by
// encoding/json in one pass, columns included. The embedded struct is a
// value, so a decoder that allocates a RequestWire for a nil field can
// fill it.
type RequestWire struct {
	plainRequest
	Windows []byte `json:"windows,omitempty"`
	Shapes  []byte `json:"shapes,omitempty"`
	Rects   []byte `json:"rects,omitempty"`
}

// ResultWire is a TileResult in the form it crosses the wire. Hotspots
// stay plain JSON: a window has a few.
type ResultWire struct {
	plainResult
	Strings    []string `json:"strings,omitempty"`
	Violations []byte   `json:"violations,omitempty"`
	Dens       []byte   `json:"dens,omitempty"`
}

// Fewest bytes one record of each kind can occupy: the bound a declared
// count is held to.
const (
	minRectBytes      = 4
	minShapeBytes     = 6
	minViolationBytes = 7
	minDensRowBytes   = 1
)

// PackRequest returns r's wire form, nil for nil.
func PackRequest(r *TileRequest) *RequestWire {
	if r == nil {
		return nil
	}
	return &RequestWire{
		plainRequest: plainRequest(*r),
		Windows:      packRects(r.Windows),
		Shapes:       packShapes(r.Shapes),
		Rects:        packRects(r.Rects),
	}
}

// Unpack decodes w's columns into a new TileRequest, nil for nil.
func (w *RequestWire) Unpack() (*TileRequest, error) {
	if w == nil {
		return nil, nil
	}
	r := new(TileRequest)
	if err := w.unpackInto(r, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// unpackInto sets *r to w's unit. err is how reading w failed, if it
// did; it, or a column that does not decode, is answered as the
// request's error: Validate's, naming the schema, when w declares
// another one (which spells these fields differently, so which byte of
// it failed to parse as this one is beside the point), else err wrapped.
func (w *RequestWire) unpackInto(r *TileRequest, err error) error {
	*r = TileRequest(w.plainRequest)
	if err == nil {
		r.Windows, err = unpackRects("windows", w.Windows)
	}
	if err == nil {
		r.Shapes, err = unpackColumn("shapes", w.Shapes, minShapeBytes, (*colReader).shape)
	}
	if err == nil {
		r.Rects, err = unpackRects("rects", w.Rects)
	}
	if err != nil {
		if r.Schema != 0 && r.Schema != TileSchema {
			return r.Validate()
		}
		return fmt.Errorf("tiling: tile request: %w", err)
	}
	return nil
}

// PackResult returns r's wire form, nil for nil.
func PackResult(r *TileResult) *ResultWire {
	if r == nil {
		return nil
	}
	w := &ResultWire{plainResult: plainResult(*r), Dens: packDens(r.Dens)}
	w.Violations, w.Strings = packViolations(r.Violations)
	return w
}

// Unpack decodes w's columns into a new TileResult, nil for nil.
func (w *ResultWire) Unpack() (*TileResult, error) {
	if w == nil {
		return nil, nil
	}
	r := new(TileResult)
	if err := w.unpackInto(r, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// unpackInto is RequestWire.unpackInto for a result.
func (w *ResultWire) unpackInto(r *TileResult, err error) error {
	*r = TileResult(w.plainResult)
	if err == nil {
		r.Violations, err = unpackColumn("violations", w.Violations, minViolationBytes,
			func(c *colReader) drc.Violation { return c.violation(w.Strings) })
	}
	if err == nil {
		r.Dens, err = unpackColumn("dens", w.Dens, minDensRowBytes, (*colReader).densRow)
	}
	if err != nil {
		return fmt.Errorf("tiling: tile result: %w", err)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (r TileRequest) MarshalJSON() ([]byte, error) { return json.Marshal(PackRequest(&r)) }

// UnmarshalJSON implements json.Unmarshaler. It replaces *r.
func (r *TileRequest) UnmarshalJSON(data []byte) error {
	var w RequestWire
	return w.unpackInto(r, strictUnmarshal(data, &w, "windows", "shapes", "rects"))
}

// MarshalJSON implements json.Marshaler.
func (r TileResult) MarshalJSON() ([]byte, error) { return json.Marshal(PackResult(&r)) }

// UnmarshalJSON implements json.Unmarshaler. It replaces *r.
func (r *TileResult) UnmarshalJSON(data []byte) error {
	var w ResultWire
	return w.unpackInto(r, strictUnmarshal(data, &w, "violations", "dens"))
}

// strictUnmarshal decodes one envelope rejecting unknown fields.
// encoding/json reports bad base64 without saying where; columns names
// the envelope's packed fields so the error can.
func strictUnmarshal(data []byte, v any, columns ...string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var bad base64.CorruptInputError
	if !errors.As(err, &bad) {
		return err
	}
	var fields map[string]json.RawMessage
	json.Unmarshal(data, &fields) //nolint:errcheck // the strict decode above already parsed it
	for _, name := range columns {
		var b []byte
		if raw, ok := fields[name]; ok && json.Unmarshal(raw, &b) != nil {
			return fmt.Errorf("%s column: %w", name, err)
		}
	}
	return err
}

// colWriter appends records to one column.
type colWriter struct {
	b      []byte
	px, py int64 // previous record's x0, y0
}

// newColWriter starts a column of n records expected to fill about
// size bytes.
func newColWriter(n, size int) *colWriter {
	return &colWriter{b: binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+size), uint64(n))}
}

func (w *colWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *colWriter) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }

func (w *colWriter) rect(r geom.Rect) {
	w.varint(r.X0 - w.px)
	w.varint(r.Y0 - w.py)
	w.varint(r.X1 - r.X0)
	w.varint(r.Y1 - r.Y0)
	w.px, w.py = r.X0, r.Y0
}

func packRects(rs []geom.Rect) []byte {
	if len(rs) == 0 {
		return nil
	}
	w := newColWriter(len(rs), 8*len(rs))
	for _, r := range rs {
		w.rect(r)
	}
	return w.b
}

func packShapes(ss []layout.Shape) []byte {
	if len(ss) == 0 {
		return nil
	}
	w := newColWriter(len(ss), 12*len(ss))
	for _, s := range ss {
		w.uvarint(uint64(s.Layer))
		w.rect(s.R)
		w.varint(int64(s.Net))
	}
	return w.b
}

// packViolations returns the column and the string table its Rule and
// Detail indices point into, in order of first use.
func packViolations(vs []drc.Violation) ([]byte, []string) {
	if len(vs) == 0 {
		return nil, nil
	}
	var table []string
	index := make(map[string]uint64)
	intern := func(s string) uint64 {
		i, ok := index[s]
		if !ok {
			i = uint64(len(table))
			index[s] = i
			table = append(table, s)
		}
		return i
	}
	w := newColWriter(len(vs), 10*len(vs))
	for _, v := range vs {
		w.uvarint(uint64(v.Layer))
		w.rect(v.Marker)
		w.uvarint(intern(v.Rule))
		w.uvarint(intern(v.Detail))
	}
	return w.b, table
}

func packDens(rows [][]float64) []byte {
	if len(rows) == 0 {
		return nil
	}
	cells := 0
	for _, row := range rows {
		cells += len(row)
	}
	w := newColWriter(len(rows), 2*len(rows)+8*cells)
	for _, row := range rows {
		w.uvarint(uint64(len(row)))
		for _, v := range row {
			w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
		}
	}
	return w.b
}

// colReader consumes one column. The first failure sticks in err and
// every later read returns zero, so record decoders read straight
// through and unpackColumn checks once per record.
type colReader struct {
	b      []byte
	px, py int64
	err    error
}

func (c *colReader) failf(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, a...)
	}
}

// advance consumes the n bytes binary.Uvarint/Varint reported, or
// records why it reported none.
func (c *colReader) advance(n int) bool {
	switch {
	case c.err != nil:
		return false
	case n == 0:
		c.failf("truncated varint")
		return false
	case n < 0:
		c.failf("varint overflows 64 bits")
		return false
	}
	c.b = c.b[n:]
	return true
}

func (c *colReader) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if !c.advance(n) {
		return 0
	}
	return v
}

func (c *colReader) varint() int64 {
	v, n := binary.Varint(c.b)
	if !c.advance(n) {
		return 0
	}
	return v
}

// count reads a length and holds it to what the remaining bytes could
// possibly encode at per bytes apiece — before the caller allocates.
func (c *colReader) count(per int, what string) int {
	n := c.uvarint()
	if n > uint64(len(c.b)/per) {
		c.failf("declares %d %s, the %d bytes that follow hold at most %d", n, what, len(c.b), len(c.b)/per)
		return 0
	}
	return int(n)
}

func (c *colReader) rect() geom.Rect {
	x0, y0 := c.px+c.varint(), c.py+c.varint()
	r := geom.Rect{X0: x0, Y0: y0, X1: x0 + c.varint(), Y1: y0 + c.varint()}
	c.px, c.py = x0, y0
	return r
}

func (c *colReader) layer() tech.Layer {
	l := c.uvarint()
	if l > math.MaxUint8 {
		c.failf("layer %d does not fit a byte", l)
	}
	return tech.Layer(l)
}

func (c *colReader) shape() layout.Shape {
	s := layout.Shape{Layer: c.layer(), R: c.rect()}
	net := c.varint()
	if net != int64(int32(net)) {
		c.failf("net %d does not fit 32 bits", net)
	}
	s.Net = layout.NetID(net)
	return s
}

func (c *colReader) violation(table []string) drc.Violation {
	v := drc.Violation{Layer: c.layer(), Marker: c.rect()}
	v.Rule, v.Detail = c.str(table), c.str(table)
	return v
}

func (c *colReader) str(table []string) string {
	i := c.uvarint()
	if i >= uint64(len(table)) {
		c.failf("string index %d past a table of %d", i, len(table))
		return ""
	}
	return table[i]
}

func (c *colReader) densRow() []float64 {
	n := c.count(8, "values")
	if n == 0 {
		return nil
	}
	row := make([]float64, n)
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.b[8*i:]))
	}
	c.b = c.b[8*n:]
	return row
}

// unpackColumn decodes a whole column with record, which reads one
// record of at least minBytes bytes. Errors name the field and record.
func unpackColumn[T any](field string, b []byte, minBytes int, record func(*colReader) T) ([]T, error) {
	if len(b) == 0 {
		return nil, nil
	}
	c := &colReader{b: b}
	var out []T
	if n := c.count(minBytes, "records"); n > 0 {
		out = make([]T, n)
	}
	for i := range out {
		out[i] = record(c)
		if c.err != nil {
			return nil, fmt.Errorf("%s column: record %d: %w", field, i, c.err)
		}
	}
	if c.err == nil && len(c.b) != 0 {
		c.failf("%d trailing bytes after %d records", len(c.b), len(out))
	}
	if c.err != nil {
		return nil, fmt.Errorf("%s column: %w", field, c.err)
	}
	return out, nil
}

func unpackRects(field string, b []byte) ([]geom.Rect, error) {
	return unpackColumn(field, b, minRectBytes, (*colReader).rect)
}
