package pattern

import (
	"fmt"
	"sort"
)

// PDB is the pattern database of the yield-learning methodology:
// pattern classes accumulated across multiple designs/technology
// cycles, each carrying a persistent ID, per-design occurrence counts,
// an optional yield-impact weight (assigned once fab data exists), and
// a lifecycle status derived from its occurrence history.
type PDB struct {
	Radius  int64
	entries map[uint64]*PDBEntry
	designs []string // ingest order
}

// PDBEntry is one tracked pattern class.
type PDBEntry struct {
	ID        uint64
	Rep       Pattern
	FirstSeen string
	Counts    map[string]int
	// Weight is the yield-impact weight from failure analysis
	// (0 = not yet characterized).
	Weight float64
}

// Total returns the entry's all-design occurrence count.
func (e *PDBEntry) Total() int {
	n := 0
	for _, c := range e.Counts {
		n += c
	}
	return n
}

// Lifecycle states of a pattern across the design sequence.
type Lifecycle uint8

// Lifecycle values.
const (
	New       Lifecycle = iota // first appeared in the latest design
	Recurring                  // present in the latest and earlier designs
	Retired                    // absent from the latest design (fixed by
	// process learning or designed out by DFM)
)

func (s Lifecycle) String() string {
	switch s {
	case New:
		return "new"
	case Recurring:
		return "recurring"
	}
	return "retired"
}

// NewPDB creates an empty database for the given pattern radius.
func NewPDB(radius int64) *PDB {
	return &PDB{Radius: radius, entries: make(map[uint64]*PDBEntry)}
}

// Ingest merges a design's pattern catalog. The catalog must use the
// database's radius.
func (p *PDB) Ingest(design string, cat *Catalog) error {
	if cat.Radius != p.Radius {
		return fmt.Errorf("pattern: catalog radius %d != pdb radius %d", cat.Radius, p.Radius)
	}
	for _, cl := range cat.Classes() {
		e, ok := p.entries[cl.ID]
		if !ok {
			e = &PDBEntry{ID: cl.ID, Rep: cl.Rep, FirstSeen: design, Counts: make(map[string]int)}
			p.entries[cl.ID] = e
		}
		e.Counts[design] += cl.Count
	}
	p.designs = append(p.designs, design)
	return nil
}

// Len returns the number of tracked classes.
func (p *PDB) Len() int { return len(p.entries) }

// SetWeight records a yield-impact weight for a class (from failure
// analysis). Unknown ids are ignored and reported.
func (p *PDB) SetWeight(id uint64, w float64) bool {
	e, ok := p.entries[id]
	if !ok {
		return false
	}
	e.Weight = w
	return true
}

// Status derives the lifecycle state of one entry relative to the
// latest ingested design.
func (p *PDB) Status(e *PDBEntry) Lifecycle {
	if len(p.designs) == 0 {
		return Retired
	}
	latest := p.designs[len(p.designs)-1]
	if e.Counts[latest] == 0 {
		return Retired
	}
	if e.FirstSeen == latest {
		return New
	}
	return Recurring
}

// ByStatus partitions the entries by lifecycle state, each list sorted
// by descending total count.
func (p *PDB) ByStatus() map[Lifecycle][]*PDBEntry {
	out := make(map[Lifecycle][]*PDBEntry)
	for _, e := range p.entries {
		s := p.Status(e)
		out[s] = append(out[s], e)
	}
	for _, list := range out {
		sort.Slice(list, func(i, j int) bool {
			if list[i].Total() != list[j].Total() {
				return list[i].Total() > list[j].Total()
			}
			return list[i].ID < list[j].ID
		})
	}
	return out
}

// TopDetractors returns the n highest-scoring entries in the latest
// design, scored weight*count (uncharacterized entries score by count
// alone with a small factor so characterized killers always rank
// first).
func (p *PDB) TopDetractors(n int) []*PDBEntry {
	if len(p.designs) == 0 {
		return nil
	}
	latest := p.designs[len(p.designs)-1]
	score := func(e *PDBEntry) float64 {
		c := float64(e.Counts[latest])
		if e.Weight > 0 {
			return e.Weight * c
		}
		return 0.001 * c
	}
	var all []*PDBEntry
	for _, e := range p.entries {
		if e.Counts[latest] > 0 {
			all = append(all, e)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		si, sj := score(all[i]), score(all[j])
		if si != sj {
			return si > sj
		}
		return all[i].ID < all[j].ID
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
