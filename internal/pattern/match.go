package pattern

import (
	"sort"

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
		m.byHash[e.P.CanonHash()] = append(m.byHash[e.P.CanonHash()], e)
	}
}

// Len returns the library size.
func (m *Matcher) Len() int { return len(m.entries) }

// ScanLayer extracts a pattern at every geometry corner of the layer
// and reports all library matches, sorted by position.
func (m *Matcher) ScanLayer(rs []geom.Rect) []Match {
	norm := geom.Normalize(rs)
	ix := geom.IndexOf(4*m.Radius, norm)
	var out []Match
	for _, a := range Anchors(norm) {
		p := ExtractAtIndexed(ix, a, m.Radius)
		out = append(out, m.MatchAt(p, a)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At.Less(out[j].At)
		}
		return out[i].Entry.Name < out[j].Entry.Name
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
