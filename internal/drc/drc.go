// Package drc implements the design-rule checker: the baseline
// physical-verification tool DFM techniques are measured against.
// Checks operate on the flattened layout, per layer: minimum width,
// minimum spacing (edge-to-edge and corner-to-corner), via enclosure,
// minimum area, density windows, and gate endcap extension. A Deck
// bundles the rules derived from a technology; Run executes the deck
// and returns located violations.
package drc

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/tech"
)

// Violation is one located design-rule failure.
type Violation struct {
	Rule   string
	Layer  tech.Layer
	Marker geom.Rect // the offending region or measurement box
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s @ %v on %v: %s", v.Rule, v.Marker, v.Layer, v.Detail)
}

// Rule is one executable check.
type Rule interface {
	Name() string
	Check(ctx *Context) []Violation
}

// Context carries the prepared layout data shared by all rules of one
// run. Layer geometry is normalized once; what rules derive from a
// layer (band starts, boundary edges) is prepared on first use and
// shared by every rule that reads the layer (layer.go). Layers must
// not change once a rule has run. A Context must not be copied.
type Context struct {
	Tech   *tech.Tech
	Layers map[tech.Layer][]geom.Rect // normalized
	Shapes []layout.Shape             // original flat shapes (net-annotated)

	prep [tech.NumLayers]preparedLayer
}

// NewContext normalizes a flat shape list for checking.
func NewContext(t *tech.Tech, flat []layout.Shape) *Context {
	ctx := &Context{Tech: t, Layers: make(map[tech.Layer][]geom.Rect), Shapes: flat}
	for l, rs := range layout.ByLayer(flat) {
		ctx.Layers[l] = geom.Normalize(rs)
	}
	return ctx
}

// Deck is an ordered rule collection.
type Deck struct {
	Name  string
	Rules []Rule
}

// Result is the outcome of running a deck.
type Result struct {
	Violations []Violation
	ByRule     map[string]int
}

// Count returns the total violation count.
func (r Result) Count() int { return len(r.Violations) }

// Run executes every rule and aggregates the violations
// deterministically (SortViolations order). Rules fan out across the
// machine's cores; rules only read the shared Context.
func (d *Deck) Run(ctx *Context) Result {
	return d.RunCtx(context.Background(), ctx, runtime.GOMAXPROCS(0))
}

// RunCtx is Run with explicit cancellation and worker-pool width:
// independent rules are checked concurrently (each rule only reads the
// prepared Context), per-rule results land in rule order, and the
// aggregate is identical to a sequential run. A canceled context stops
// dispatching further rules; the partial result is still returned.
func (d *Deck) RunCtx(stdctx context.Context, ctx *Context, parallel int) Result {
	perRule := make([][]Violation, len(d.Rules))
	_ = harness.ForEach(stdctx, parallel, len(d.Rules), func(i int) {
		perRule[i] = d.Rules[i].Check(ctx)
	})
	res := Result{ByRule: make(map[string]int)}
	for i, rule := range d.Rules {
		res.Violations = append(res.Violations, perRule[i]...)
		res.ByRule[rule.Name()] += len(perRule[i])
	}
	SortViolations(res.Violations)
	return res
}

// SortViolations orders violations by rule, then marker (Y0, X0, Y1,
// X1), layer and detail. The order is total — violations that compare
// equal are identical — so equal multisets sort to equal slices
// whatever order they were found in, which is what lets a flat run, a
// tiled run and a replayed one be compared element-wise.
func SortViolations(vs []Violation) {
	slices.SortFunc(vs, CompareViolations)
}

// CompareViolations is the order of SortViolations.
func CompareViolations(a, b Violation) int {
	if c := cmp.Compare(a.Rule, b.Rule); c != 0 {
		return c
	}
	if c := a.Marker.Compare(b.Marker); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Layer, b.Layer); c != 0 {
		return c
	}
	return cmp.Compare(a.Detail, b.Detail)
}

// StandardDeck derives the full rule deck from a technology.
func StandardDeck(t *tech.Tech) *Deck {
	d := &Deck{Name: t.Name + ".deck"}
	for l := tech.Layer(0); l < tech.NumLayers; l++ {
		r := t.Rules[l]
		if r.MinWidth > 0 && !l.IsVia() {
			d.Rules = append(d.Rules, MinWidth{Layer: l, W: r.MinWidth})
		}
		if r.MinSpace > 0 && !l.IsVia() {
			d.Rules = append(d.Rules, MinSpace{Layer: l, S: r.MinSpace})
		}
		if l.IsVia() && r.ViaSpace > 0 {
			d.Rules = append(d.Rules, MinSpace{Layer: l, S: r.ViaSpace})
		}
		if l.IsVia() && r.ViaSize > 0 {
			d.Rules = append(d.Rules, ViaSize{Layer: l, Size: r.ViaSize})
		}
		if l.IsVia() && r.ViaEnclosure > 0 {
			d.Rules = append(d.Rules, Enclosure{Via: l, Metal: l.AboveOf(), End: r.ViaEnclosure, Side: r.ViaEncSide})
		}
		if r.MinArea > 0 {
			d.Rules = append(d.Rules, MinArea{Layer: l, A: r.MinArea})
		}
	}
	// Gate endcap: poly must extend 100nm past diff.
	d.Rules = append(d.Rules, Endcap{Ext: 100})
	return d
}

// DensityDeck returns the density-window checks, which are usually run
// separately (signoff) because they need the full chip extent.
func DensityDeck(t *tech.Tech, window int64) *Deck {
	d := &Deck{Name: t.Name + ".density"}
	for l := tech.Layer(0); l < tech.NumLayers; l++ {
		r := t.Rules[l]
		if r.MaxDensity > 0 {
			d.Rules = append(d.Rules, DensityWindow{
				Layer: l, Window: window, Min: r.MinDensity, Max: r.MaxDensity,
			})
		}
	}
	return d
}
