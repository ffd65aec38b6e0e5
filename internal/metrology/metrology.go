// Package metrology implements design-driven metrology (DDM): CD-SEM
// measurement plans generated directly from layout coordinates, and a
// simulated measurement engine that reads the litho image at those
// sites with tool noise. This automates what recipe engineers used to
// click by hand — the enabler that let OPC model calibration and
// design-rule characterization scale to thousands of sites.
package metrology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
)

// SiteKind classifies what a measurement site characterizes.
type SiteKind uint8

// Site kinds.
const (
	LineWidth  SiteKind = iota // CD of a drawn feature
	SpaceWidth                 // gap between features
	LineEnd                    // tip-to-tip or tip position
)

func (k SiteKind) String() string {
	switch k {
	case LineWidth:
		return "line"
	case SpaceWidth:
		return "space"
	}
	return "line-end"
}

// Site is one planned measurement.
type Site struct {
	ID         int
	Kind       SiteKind
	At         geom.Point // measurement location
	Horizontal bool       // scan direction
	Drawn      int64      // drawn dimension at the site, nm
}

// Plan is an ordered measurement recipe.
type Plan struct {
	Layer tech.Layer
	Sites []Site
}

// Typical recipe limits.
const (
	maxSites   = 500 // cap on a plan
	minFeature = 20  // narrower features are skipped (dummy fill etc), nm
	spaceLimit = 400 // the widest gap still worth measuring, nm
	tipLimit   = 120 // the longest edge treated as a line end, nm
)

// GeneratePlan derives measurement sites from the drawn layer
// geometry: one LineWidth site at each feature's center (scanning
// across its narrow dimension), one SpaceWidth site in each
// sub-spaceLimit gap between facing edges, and a LineEnd site at each
// feature tip (short edge). Sites are deterministic (sorted by
// location).
func GeneratePlan(rs []geom.Rect, layer tech.Layer) Plan {
	norm := geom.Normalize(rs)
	plan := Plan{Layer: layer}

	// Line-width sites per normalized rect.
	for _, r := range norm {
		if r.MinDim() < minFeature {
			continue
		}
		horizontal := r.Width() <= r.Height() // scan across the narrow axis
		plan.Sites = append(plan.Sites, Site{
			Kind:       LineWidth,
			At:         r.Center(),
			Horizontal: horizontal,
			Drawn:      r.MinDim(),
		})
	}

	// Space sites from facing-edge pairs.
	edges := geom.BoundaryEdges(norm)
	ix := geom.NewIndex(4 * spaceLimit)
	boxes := make([]geom.Rect, len(edges))
	for i, e := range edges {
		boxes[i] = geom.R(e.P0.X, e.P0.Y, e.P1.X, e.P1.Y)
		ix.Insert(boxes[i])
	}
	seen := map[geom.Point]bool{}
	for i, e := range edges {
		if e.Length() < minFeature {
			continue
		}
		var search geom.Rect
		var wantSide geom.Side
		if e.Horizontal() && e.Interior == geom.Below {
			search = geom.R(e.P0.X, e.P0.Y+1, e.P1.X, e.P0.Y+spaceLimit)
			wantSide = geom.Above
		} else if !e.Horizontal() && e.Interior == geom.Left {
			search = geom.R(e.P0.X+1, e.P0.Y, e.P0.X+spaceLimit, e.P1.Y)
			wantSide = geom.Right
		} else {
			continue
		}
		for _, id := range ix.Query(search) {
			f := edges[id]
			if f.Interior != wantSide || f.Horizontal() != e.Horizontal() || id == i {
				continue
			}
			var at geom.Point
			var gap int64
			var marker geom.Rect
			if e.Horizontal() {
				x0, x1 := max(e.P0.X, f.P0.X), min(e.P1.X, f.P1.X)
				if x0 >= x1 || f.P0.Y <= e.P0.Y {
					continue
				}
				gap = f.P0.Y - e.P0.Y
				at = geom.Pt((x0+x1)/2, (e.P0.Y+f.P0.Y)/2)
				marker = geom.R(x0, e.P0.Y, x1, f.P0.Y)
			} else {
				y0, y1 := max(e.P0.Y, f.P0.Y), min(e.P1.Y, f.P1.Y)
				if y0 >= y1 || f.P0.X <= e.P0.X {
					continue
				}
				gap = f.P0.X - e.P0.X
				at = geom.Pt((e.P0.X+f.P0.X)/2, (y0+y1)/2)
				marker = geom.R(e.P0.X, y0, f.P0.X, y1)
			}
			if gap > spaceLimit || seen[at] {
				continue
			}
			// The whole strip between the edges must be exterior
			// (suppresses far pairs across intervening features).
			if geom.AreaOf(geom.Intersect([]geom.Rect{marker}, norm)) != 0 {
				continue
			}
			seen[at] = true
			plan.Sites = append(plan.Sites, Site{
				Kind:       SpaceWidth,
				At:         at,
				Horizontal: !e.Horizontal(),
				Drawn:      gap,
			})
		}
	}

	// Line-end sites: short boundary edges (feature tips).
	for _, e := range edges {
		if e.Length() > tipLimit || e.Length() < minFeature {
			continue
		}
		plan.Sites = append(plan.Sites, Site{
			Kind:       LineEnd,
			At:         e.Midpoint(),
			Horizontal: !e.Horizontal(),
			Drawn:      e.Length(),
		})
	}

	sort.Slice(plan.Sites, func(i, j int) bool {
		a, b := plan.Sites[i], plan.Sites[j]
		if a.At != b.At {
			return a.At.Less(b.At)
		}
		return a.Kind < b.Kind
	})
	if len(plan.Sites) > maxSites {
		plan.Sites = plan.Sites[:maxSites]
	}
	for i := range plan.Sites {
		plan.Sites[i].ID = i
	}
	return plan
}

// Measurement is one executed site.
type Measurement struct {
	Site  Site
	CD    float64 // measured dimension, nm (with tool noise)
	Valid bool    // the site produced a measurable edge pair
}

// ToolModel is the CD-SEM error model.
type ToolModel struct {
	// NoiseNM is the 1-sigma measurement repeatability.
	NoiseNM float64
	// BiasNM is the systematic tool offset.
	BiasNM float64
}

// DefaultTool returns 45nm-era CD-SEM precision.
func DefaultTool() ToolModel { return ToolModel{NoiseNM: 0.8, BiasNM: 0.0} }

// Execute runs the plan against a simulated image: line/space CDs via
// threshold-crossing metrology plus tool noise. Sites outside the
// image or without printable edges come back invalid.
func Execute(plan Plan, img *litho.Image, tool ToolModel, seed int64) []Measurement {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]Measurement, 0, len(plan.Sites))
	for _, s := range plan.Sites {
		m := Measurement{Site: s}
		x, y := float64(s.At.X), float64(s.At.Y)
		switch s.Kind {
		case LineWidth, LineEnd:
			if cd, ok := img.CDAt(x, y, s.Horizontal); ok {
				m.CD = cd + tool.BiasNM + rnd.NormFloat64()*tool.NoiseNM
				m.Valid = true
			}
		case SpaceWidth:
			// A space is measured as the gap between prints: invert by
			// measuring from the unprinted midpoint to the two edges.
			if !img.PrintsAt(x, y) {
				lo, hi := scanGap(img, x, y, s.Horizontal)
				if hi > lo {
					m.CD = hi - lo + tool.BiasNM + rnd.NormFloat64()*tool.NoiseNM
					m.Valid = true
				}
			}
		}
		out = append(out, m)
	}
	return out
}

// scanGap walks outward from an unprinted point to the printed edges
// on both sides, returning the gap bounds along the scan axis.
func scanGap(img *litho.Image, x, y float64, horizontal bool) (lo, hi float64) {
	step := img.Pitch / 2
	limit := 600.0
	val := func(d float64) float64 {
		if horizontal {
			return img.Sample(x+d, y)
		}
		return img.Sample(x, y+d)
	}
	loOK, hiOK := false, false
	prev := val(0)
	for d := step; d <= limit; d += step {
		v := val(d)
		if v >= img.Threshold {
			hi = d - step*(v-img.Threshold)/(v-prev+1e-12)
			hiOK = true
			break
		}
		prev = v
	}
	prev = val(0)
	for d := -step; d >= -limit; d -= step {
		v := val(d)
		if v >= img.Threshold {
			lo = d + step*(v-img.Threshold)/(v-prev+1e-12)
			loOK = true
			break
		}
		prev = v
	}
	if !loOK || !hiOK || hi < lo {
		return 0, 0
	}
	base := x
	if !horizontal {
		base = y
	}
	return base + lo, base + hi
}

// Stats summarizes measurements against drawn dimensions.
type Stats struct {
	N       int
	Valid   int
	MeanErr float64 // mean (measured - drawn), nm
	Sigma   float64
}

// Summarize aggregates per-kind statistics.
func Summarize(ms []Measurement) map[SiteKind]Stats {
	acc := map[SiteKind][]float64{}
	counts := map[SiteKind]int{}
	for _, m := range ms {
		counts[m.Site.Kind]++
		if m.Valid {
			acc[m.Site.Kind] = append(acc[m.Site.Kind], m.CD-float64(m.Site.Drawn))
		}
	}
	out := map[SiteKind]Stats{}
	for k, errs := range acc {
		st := Stats{N: counts[k], Valid: len(errs)}
		var sum float64
		for _, e := range errs {
			sum += e
		}
		st.MeanErr = sum / float64(len(errs))
		var sq float64
		for _, e := range errs {
			sq += (e - st.MeanErr) * (e - st.MeanErr)
		}
		st.Sigma = math.Sqrt(sq / float64(len(errs)))
		out[k] = st
	}
	for k, n := range counts {
		if _, ok := out[k]; !ok {
			out[k] = Stats{N: n}
		}
	}
	return out
}

// String implements fmt.Stringer for plans.
func (p Plan) String() string {
	counts := map[SiteKind]int{}
	for _, s := range p.Sites {
		counts[s.Kind]++
	}
	return fmt.Sprintf("plan(%s: %d sites: %d line, %d space, %d line-end)",
		p.Layer, len(p.Sites), counts[LineWidth], counts[SpaceWidth], counts[LineEnd])
}
