package pattern

import (
	"slices"
	"strings"

	"repro/internal/geom"
)

// Matcher finds library patterns in a layout — the enforcement half of
// DRC Plus: a foundry ships a library of known-bad 2D constructs and
// physical verification flags every occurrence in the design.

// LibEntry is one library pattern with its metadata.
type LibEntry struct {
	Name    string
	P       Pattern
	Exact   bool    // match by canonical hash; otherwise by similarity
	MinSim  float64 // similarity threshold when Exact is false
	Penalty float64 // severity weight used by DFM scoring
}

// Match is one found occurrence.
type Match struct {
	Entry *LibEntry
	At    geom.Point
	Sim   float64 // 1.0 for exact matches
}

// Matcher scans layouts against a pattern library.
type Matcher struct {
	Radius  int64
	entries []*LibEntry
	byHash  map[uint64][]*LibEntry // exact entries keyed by canonical hash
}

// NewMatcher creates a matcher; all library entries must use the same
// window radius as the matcher.
func NewMatcher(radius int64) *Matcher {
	return &Matcher{Radius: radius, byHash: make(map[uint64][]*LibEntry)}
}

// AddEntry registers a library pattern.
func (m *Matcher) AddEntry(e *LibEntry) {
	m.entries = append(m.entries, e)
	if e.Exact {
		h := e.P.CanonHash()
		m.byHash[h] = append(m.byHash[h], e)
	}
}

// Len returns the library size.
func (m *Matcher) Len() int { return len(m.entries) }

// ScanLayer extracts a pattern at every geometry corner of the layer
// and reports all library matches, sorted by position.
func (m *Matcher) ScanLayer(rs []geom.Rect) []Match {
	norm := geom.Normalize(rs)
	l := geom.BandedOf(norm)
	var out []Match
	for _, a := range Anchors(norm) {
		out = append(out, m.MatchAt(ExtractAt(l, a, m.Radius), a)...)
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

// MatchAt tests one extracted pattern against the library.
func (m *Matcher) MatchAt(p Pattern, at geom.Point) []Match {
	var out []Match
	if es, ok := m.byHash[p.CanonHash()]; ok {
		for _, e := range es {
			out = append(out, Match{Entry: e, At: at, Sim: 1})
		}
	}
	for _, e := range m.entries {
		if e.Exact {
			continue
		}
		if s := JaccardOriented(e.P, p); s >= e.MinSim {
			out = append(out, Match{Entry: e, At: at, Sim: s})
		}
	}
	return out
}
