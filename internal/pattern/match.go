package pattern

import (
	"slices"
	"strings"

	"repro/internal/geom"
)

// Matcher finds library patterns in a layout — the enforcement half of
// DRC Plus: a foundry ships a library of known-bad 2D constructs and
// physical verification flags every occurrence in the design.

// LibEntry is one library pattern: a known-bad construct, matched
// exactly, in any of the eight orientations, by its canonical hash.
type LibEntry struct {
	Name string
	P    Pattern
}

// Match is one found occurrence.
type Match struct {
	Entry *LibEntry
	At    geom.Point
}

// Matcher scans layouts against a pattern library.
type Matcher struct {
	Radius int64
	n      int
	byHash map[uint64][]*LibEntry // entries keyed by canonical hash
}

// NewMatcher creates a matcher; all library entries must use the same
// window radius as the matcher.
func NewMatcher(radius int64) *Matcher {
	return &Matcher{Radius: radius, byHash: make(map[uint64][]*LibEntry)}
}

// AddEntry registers a library pattern.
func (m *Matcher) AddEntry(e *LibEntry) {
	m.n++
	h := e.P.CanonHash()
	m.byHash[h] = append(m.byHash[h], e)
}

// Len returns the library size.
func (m *Matcher) Len() int { return m.n }

// ScanLayer extracts a pattern at every geometry corner of the layer
// and reports all library matches, sorted by position.
func (m *Matcher) ScanLayer(rs []geom.Rect) []Match {
	norm := geom.Normalize(rs)
	l := geom.BandedOf(norm)
	var out []Match
	for _, a := range Anchors(norm) {
		for _, e := range m.byHash[ExtractAt(l, a, m.Radius).CanonHash()] {
			out = append(out, Match{Entry: e, At: a})
		}
	}
	slices.SortFunc(out, func(a, b Match) int {
		if a.At != b.At {
			if a.At.Less(b.At) {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Entry.Name, b.Entry.Name)
	})
	return out
}
