// Package repair implements the in-design DFM score-and-repair loop:
// rule-weighted scoring of a tiled evaluation with rect-level
// attribution, an auto-fixer that proposes DRC-legal layout edits
// (redundant-via doubling, wire spreading, enclosure growth) as typed
// deltas, and a driver that applies fixes and re-scores through the
// incremental dirty-region engine (tiling.EvaluateDelta) instead of
// re-evaluating the whole chip after every edit.
package repair

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// Weights maps evaluator findings to score cost. A zero Weights is
// usable (every field falls back to the DefaultWeights value), so
// callers override only what they care about.
type Weights struct {
	// Rule gives exact per-rule overrides, keyed by the DRC rule name
	// (e.g. "metal2.space.70").
	Rule map[string]float64
	// Class weights by rule family; 0 means the default.
	Space, Width, Enclosure, Area, Density, Endcap float64
	// Hotspot is the cost per printed litho hotspot.
	Hotspot float64
	// SingleVia is the cost per single-cut via (the doubling target).
	SingleVia float64
}

// DefaultWeights reflects the paper's severity ordering: hard shorts
// and opens (spacing/width) over reliability (enclosure, area) over
// manufacturability guidance (density), with printed hotspots between
// the two — a litho pinch is a probable open, not a certain one.
func DefaultWeights() Weights {
	return Weights{
		Space: 4, Width: 4, Enclosure: 3, Area: 2, Density: 1, Endcap: 3,
		Hotspot:   5,
		SingleVia: 0.5,
	}
}

func defVal(v, def float64) float64 {
	if v != 0 {
		return v
	}
	return def
}

// ViolationWeight returns the cost of one violation of the rule.
func (w Weights) ViolationWeight(rule string) float64 {
	if v, ok := w.Rule[rule]; ok {
		return v
	}
	d := DefaultWeights()
	switch {
	case strings.Contains(rule, ".space."):
		return defVal(w.Space, d.Space)
	case strings.Contains(rule, ".width."):
		return defVal(w.Width, d.Width)
	case strings.Contains(rule, ".enc."):
		return defVal(w.Enclosure, d.Enclosure)
	case strings.Contains(rule, ".area."):
		return defVal(w.Area, d.Area)
	case strings.Contains(rule, ".density"):
		return defVal(w.Density, d.Density)
	case strings.Contains(rule, ".endcap"):
		return defVal(w.Endcap, d.Endcap)
	}
	return 1
}

// HotspotWeight returns the cost of one printed hotspot.
func (w Weights) HotspotWeight() float64 { return defVal(w.Hotspot, DefaultWeights().Hotspot) }

// SingleViaWeight returns the cost of one single-cut via.
func (w Weights) SingleViaWeight() float64 { return defVal(w.SingleVia, DefaultWeights().SingleVia) }

// Attribution ties one unit of score cost to the rect that earned it,
// so the fixer (and reports) can rank concrete offenders.
type Attribution struct {
	Rule   string // DRC rule name, or "hotspot.<layer>"
	Layer  tech.Layer
	Marker geom.Rect
	Weight float64
}

// Score is the weighted DFM cost of one evaluation: lower is better,
// zero is a clean chip with no doubling opportunities left.
type Score struct {
	Total      float64
	Violations float64 // DRC + density contribution
	Hotspots   float64 // litho contribution
	SingleVias float64 // redundancy contribution (Singles * SingleVia)
	Singles    int
	ByRule     map[string]float64
	// Attr lists every violation and hotspot with its weight, sorted
	// most expensive first (ties by rule, then marker position, then —
	// so the order is total — layer) — the fixer's worklist order.
	Attr []Attribution
}

// ScoreResult scores a tiled evaluation. singles is the single-cut via
// count the caller attributes to the design (pass 0 to score DRC and
// litho findings only).
//
// Nothing is sorted per violation: an evaluator's list arrives in
// (rule, marker, layer, detail) order, which within one rule is the
// worklist's order too, so Attr is that list cut into per-rule blocks
// and the blocks — a few dozen — ranked by weight. A hand-built result
// in any other order is sorted on a copy first.
func ScoreResult(res *tiling.Result, singles int, w Weights) Score {
	sc := Score{ByRule: make(map[string]float64), Singles: singles}
	vs := res.Violations
	if !slices.IsSortedFunc(vs, drc.CompareViolations) {
		vs = slices.Clone(vs)
		drc.SortViolations(vs)
	}
	// block is one rule's attributions: a run of vs, or a hotspot
	// layer's boxes.
	type block struct {
		rule   string
		weight float64
		layer  tech.Layer // hotspot blocks
		vs     []drc.Violation
		boxes  []geom.Rect
	}
	var blocks []block
	n := len(vs) // attributions in all
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j].Rule == vs[i].Rule {
			j++
		}
		b := block{rule: vs[i].Rule, weight: w.ViolationWeight(vs[i].Rule), vs: vs[i:j]}
		// Added once per violation, not multiplied: a weight that is not
		// exact in binary must sum as it would finding by finding.
		sum := 0.0
		for range b.vs {
			sc.Violations += b.weight
			sum += b.weight
		}
		sc.ByRule[b.rule] = sum
		blocks = append(blocks, b)
		i = j
	}
	// Violations dropped past Opts.MaxViolations still cost; they are
	// counted in ByRule totals at the rule's weight but cannot be
	// attributed to a rect.
	if res.Dropped > 0 {
		kept := make(map[string]int, len(blocks))
		for _, b := range blocks {
			kept[b.rule] = len(b.vs)
		}
		rules := make([]string, 0, len(res.ByRule))
		for rule := range res.ByRule {
			rules = append(rules, rule)
		}
		slices.Sort(rules)
		for _, rule := range rules {
			if extra := res.ByRule[rule] - kept[rule]; extra > 0 {
				wt := w.ViolationWeight(rule) * float64(extra)
				sc.Violations += wt
				sc.ByRule[rule] += wt
			}
		}
	}
	hw := w.HotspotWeight()
	for layer := tech.Layer(0); layer < tech.NumLayers; layer++ {
		hs := res.Hotspots[layer]
		if len(hs) == 0 {
			continue
		}
		b := block{rule: "hotspot." + layer.String(), weight: hw, layer: layer, boxes: make([]geom.Rect, len(hs))}
		for i, h := range hs {
			b.boxes[i] = h.Box
			sc.Hotspots += hw
			sc.ByRule[b.rule] += hw
		}
		slices.SortFunc(b.boxes, geom.Rect.Compare)
		blocks = append(blocks, b)
		n += len(hs)
	}
	sc.SingleVias = float64(singles) * w.SingleViaWeight()
	sc.Total = sc.Violations + sc.Hotspots + sc.SingleVias

	slices.SortFunc(blocks, func(a, b block) int {
		if c := cmp.Compare(b.weight, a.weight); c != 0 {
			return c
		}
		return cmp.Compare(a.rule, b.rule)
	})
	if n > 0 {
		sc.Attr = make([]Attribution, 0, n)
	}
	for _, b := range blocks {
		for _, v := range b.vs {
			sc.Attr = append(sc.Attr, Attribution{Rule: b.rule, Layer: v.Layer, Marker: v.Marker, Weight: b.weight})
		}
		for _, box := range b.boxes {
			sc.Attr = append(sc.Attr, Attribution{Rule: b.rule, Layer: b.layer, Marker: box, Weight: b.weight})
		}
	}
	return sc
}

// ruleDistance parses the trailing numeric field of a rule name
// ("metal2.space.70" -> 70).
func ruleDistance(rule string) (int64, bool) {
	i := strings.LastIndexByte(rule, '.')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(rule[i+1:], 10, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}
