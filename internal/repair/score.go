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
	"sort"
	"strconv"
	"strings"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/litho"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// Weights is empty: every finding is priced by the one table below.
// The benchmark module (benchmark/) passes Weights{} to ScoreResult and
// Propose, so their signatures keep it.
type Weights struct{}

// The price of one finding, in the severity ordering: hard shorts and
// opens (spacing, width) over reliability (enclosure, endcap, area)
// over manufacturability guidance (density), with a printed hotspot
// between the two — a litho pinch is a probable open, not a certain
// one — and a single-cut via, the doubling target, cheapest.
const (
	hotspotWeight   = 5
	singleViaWeight = 0.5
)

// violationWeight returns the cost of one violation of the rule: the
// price of the first family, in this order, whose tag its name holds.
func violationWeight(rule string) float64 {
	switch {
	case strings.Contains(rule, ".space."), strings.Contains(rule, ".width."):
		return 4
	case strings.Contains(rule, ".enc."):
		return 3
	case strings.Contains(rule, ".area."):
		return 2
	case strings.Contains(rule, ".density"):
		return 1
	case strings.Contains(rule, ".endcap"):
		return 3
	}
	return 1
}

// Attribution ties one unit of score cost to the rect that earned it:
// the finding a fix is proposed for.
type Attribution struct {
	Rule   string // DRC rule name, or "hotspot.<layer>"
	Layer  tech.Layer
	Marker geom.Rect
	Weight float64
}

// Score is the weighted DFM cost of one evaluation: lower is better,
// zero is a clean chip with no doubling opportunities left. A Score
// shares the scored result's violation list and hotspots, which it
// only reads: the result must not be modified while the Score is in
// use.
type Score struct {
	Total      float64
	Violations float64 // DRC + density contribution
	Hotspots   float64 // litho contribution
	SingleVias float64 // redundancy contribution (Singles * SingleVia)
	Singles    int
	ByRule     map[string]float64
	// blocks holds the findings one rule at a time, most expensive
	// rule first (ties by rule name): what Propose walks.
	blocks []ruleBlock
}

// ruleBlock is one rule's findings: a run of the scored result's
// violations, or one layer's hotspots in scan order.
type ruleBlock struct {
	rule   string
	weight float64
	vs     []drc.Violation
	layer  tech.Layer // hotspot blocks
	hs     []litho.Hotspot
}

// ScoreResult scores a tiled evaluation. singles is the single-cut via
// count the caller attributes to the design (pass 0 to score DRC and
// litho findings only).
//
// Nothing is copied, sorted or read per finding: a result's violation
// list is in drc.SortViolations order (tiling.Result.Violations), so
// each rule's violations are one run of it, found by binary search,
// and the totals are summed run by run. A list out of that order is
// scored wrong, without an error; it is not checked here, because
// every engine hands its list over sorted and TestViolationsInSortOrder
// holds each of them to it.
func ScoreResult(res *tiling.Result, singles int, _ Weights) Score {
	sc := Score{ByRule: make(map[string]float64), Singles: singles}
	blocks := cutRules(res.Violations)
	// Every price but the single via's is a whole number, so a rule's
	// total is its count times its price, exactly.
	for i := range blocks {
		b := &blocks[i]
		b.weight = violationWeight(b.rule)
		sum := b.weight * float64(len(b.vs))
		sc.Violations += sum
		sc.ByRule[b.rule] = sum
	}
	for layer := tech.Layer(0); layer < tech.NumLayers; layer++ {
		hs := res.Hotspots[layer]
		if len(hs) == 0 {
			continue
		}
		b := ruleBlock{rule: "hotspot." + layer.String(), weight: hotspotWeight, layer: layer, hs: hs}
		sum := hotspotWeight * float64(len(hs))
		sc.Hotspots += sum
		sc.ByRule[b.rule] += sum
		blocks = append(blocks, b)
	}
	sc.SingleVias = float64(singles) * singleViaWeight
	sc.Total = sc.Violations + sc.Hotspots + sc.SingleVias

	slices.SortFunc(blocks, func(a, b ruleBlock) int {
		if c := cmp.Compare(b.weight, a.weight); c != 0 {
			return c
		}
		return cmp.Compare(a.rule, b.rule)
	})
	sc.blocks = blocks
	return sc
}

// cutRules cuts vs, which is in SortViolations order, into one block
// per rule: where each rule's run ends is found by binary search.
func cutRules(vs []drc.Violation) []ruleBlock {
	var blocks []ruleBlock
	for len(vs) > 0 {
		rule := vs[0].Rule
		n := sort.Search(len(vs), func(i int) bool { return vs[i].Rule != rule })
		blocks = append(blocks, ruleBlock{rule: rule, vs: vs[:n]})
		vs = vs[n:]
	}
	return blocks
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
