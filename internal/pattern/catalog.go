package pattern

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Class is one pattern equivalence class in a catalog.
type Class struct {
	ID       uint64 // canonical hash
	Rep      Pattern
	Count    int
	Examples []geom.Point // up to maxExamples anchor locations
}

const maxExamples = 8

// Catalog counts pattern classes extracted from one or more layouts —
// the "layout pattern catalog" of the Dai/Capodieci line of work.
type Catalog struct {
	Radius  int64
	classes map[uint64]*Class
	total   int
}

// NewCatalog creates an empty catalog for the given window radius.
func NewCatalog(radius int64) *Catalog {
	return &Catalog{Radius: radius, classes: make(map[uint64]*Class)}
}

// AddLayer extracts patterns at every geometry corner of the layer and
// accumulates them into the catalog. Returns the number of anchors
// processed.
func (c *Catalog) AddLayer(rs []geom.Rect) int {
	norm := geom.Normalize(rs)
	l := geom.BandedOf(norm)
	anchors := Anchors(norm)
	for _, a := range anchors {
		c.Add(ExtractAt(l, a, c.Radius), a)
	}
	return len(anchors)
}

// Add accumulates one pattern observed at an anchor.
func (c *Catalog) Add(p Pattern, at geom.Point) {
	id := p.CanonHash()
	cl, ok := c.classes[id]
	if !ok {
		cl = &Class{ID: id, Rep: p}
		c.classes[id] = cl
	}
	cl.Count++
	if len(cl.Examples) < maxExamples {
		cl.Examples = append(cl.Examples, at)
	}
	c.total++
}

// Total returns the number of pattern instances accumulated.
func (c *Catalog) Total() int { return c.total }

// NumClasses returns the number of distinct classes.
func (c *Catalog) NumClasses() int { return len(c.classes) }

// Classes returns the classes sorted by descending count (ties by ID
// for determinism).
func (c *Catalog) Classes() []*Class {
	out := make([]*Class, 0, len(c.classes))
	for _, cl := range c.classes {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Coverage returns the fraction of all instances covered by the k most
// frequent classes — the heavy-tail statistic behind "the top 10 via
// patterns cover >= 90% of all vias".
func (c *Catalog) Coverage(k int) float64 {
	if c.total == 0 {
		return 0
	}
	cls := c.Classes()
	if k > len(cls) {
		k = len(cls)
	}
	covered := 0
	for _, cl := range cls[:k] {
		covered += cl.Count
	}
	return float64(covered) / float64(c.total)
}

// ClassesFor returns the minimum number of top classes needed to reach
// the given coverage fraction.
func (c *Catalog) ClassesFor(coverage float64) int {
	if c.total == 0 {
		return 0
	}
	need := int(math.Ceil(coverage * float64(c.total)))
	got, k := 0, 0
	for _, cl := range c.Classes() {
		got += cl.Count
		k++
		if got >= need {
			return k
		}
	}
	return k
}

// Freq returns the relative frequency of class id.
func (c *Catalog) Freq(id uint64) float64 {
	if c.total == 0 {
		return 0
	}
	cl, ok := c.classes[id]
	if !ok {
		return 0
	}
	return float64(cl.Count) / float64(c.total)
}

// KLDivergence returns D_KL(c || other) over the union of class ids,
// with add-one smoothing so classes absent from one catalog do not
// produce infinities — the statistic used to compare pattern usage
// between products and flag outlier designs.
func (c *Catalog) KLDivergence(other *Catalog) float64 {
	ids := make(map[uint64]struct{}, len(c.classes)+len(other.classes))
	for id := range c.classes {
		ids[id] = struct{}{}
	}
	for id := range other.classes {
		ids[id] = struct{}{}
	}
	n := float64(len(ids))
	if n == 0 {
		return 0
	}
	pTot := float64(c.total) + n
	qTot := float64(other.total) + n
	var d float64
	for id := range ids {
		var pc, qc float64
		if cl, ok := c.classes[id]; ok {
			pc = float64(cl.Count)
		}
		if cl, ok := other.classes[id]; ok {
			qc = float64(cl.Count)
		}
		p := (pc + 1) / pTot
		q := (qc + 1) / qTot
		d += p * math.Log(p/q)
	}
	return d
}

// Outliers returns the classes whose frequency in c exceeds their
// frequency in the reference catalog by at least factor (and at least
// minCount instances) — the "unexpectedly frequent constructs worth
// monitoring" analysis.
func (c *Catalog) Outliers(ref *Catalog, factor float64, minCount int) []*Class {
	var out []*Class
	for _, cl := range c.Classes() {
		if cl.Count < minCount {
			continue
		}
		pf := c.Freq(cl.ID)
		rf := ref.Freq(cl.ID)
		if rf == 0 || pf/rf >= factor {
			out = append(out, cl)
		}
	}
	return out
}
