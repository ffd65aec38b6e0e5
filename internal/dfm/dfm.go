// Package dfm is the core of the reproduction: a quantitative
// evaluation framework for Design-for-Manufacturability techniques.
// "DFM in practice: hit or hype?" (DAC 2008) is a panel paper — the
// panelists assert, this package measures. Each technique evaluator
// applies one DFM technology to synthetic-but-realistic workloads,
// reports benefit and cost metrics, and the scorecard converts them
// into a hit/marginal/hype verdict with explicit thresholds.
package dfm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/harness"
)

// Metric is one before/after measurement of a technique.
type Metric struct {
	Name           string
	Before, After  float64
	Unit           string
	HigherIsBetter bool
	// Primary marks the metric the verdict keys on.
	Primary bool
}

// Gain returns the relative improvement in [-inf, +inf]: positive
// means the technique helped.
func (m Metric) Gain() float64 {
	base := math.Abs(m.Before)
	if base == 0 {
		base = 1
	}
	d := (m.After - m.Before) / base
	if d == 0 {
		return 0 // not -0: an unchanged lower-is-better metric prints "0.0%"
	}
	if !m.HigherIsBetter {
		d = -d
	}
	return d
}

// Verdict is the panel question, answered per technique.
type Verdict uint8

// Verdicts.
const (
	Hype Verdict = iota
	Marginal
	Hit
)

func (v Verdict) String() string {
	switch v {
	case Hit:
		return "HIT"
	case Marginal:
		return "MARGINAL"
	}
	return "HYPE"
}

// Outcome is one technique's evaluation.
type Outcome struct {
	Technique string
	Metrics   []Metric
	// CostFrac is the technique's resource cost as a fraction of the
	// design (area added, density increase) — 0 for pure-analysis
	// techniques.
	CostFrac float64
	CostNote string
	Runtime  time.Duration
	Verdict  Verdict
	Err      error
}

// Primary returns the verdict-driving metric (the first Primary, or
// the first metric).
func (o Outcome) Primary() (Metric, bool) {
	for _, m := range o.Metrics {
		if m.Primary {
			return m, true
		}
	}
	if len(o.Metrics) > 0 {
		return o.Metrics[0], true
	}
	return Metric{}, false
}

// Judge derives the verdict: a technique is a HIT when its primary
// metric improves by at least hitGain with cost below costCap,
// MARGINAL when it improves at all, HYPE otherwise (or on error).
func (o *Outcome) Judge(hitGain, costCap float64) {
	if o.Err != nil {
		o.Verdict = Hype
		return
	}
	p, ok := o.Primary()
	if !ok {
		o.Verdict = Hype
		return
	}
	g := p.Gain()
	switch {
	case g >= hitGain && o.CostFrac <= costCap:
		o.Verdict = Hit
	case g > 0:
		o.Verdict = Marginal
	default:
		o.Verdict = Hype
	}
}

// Scorecard collects outcomes.
type Scorecard struct {
	Outcomes []Outcome
}

// Add appends an outcome as-is. Judging is the evaluation's job: each
// outcome is judged against its row of the technique table.
func (s *Scorecard) Add(o Outcome) {
	s.Outcomes = append(s.Outcomes, o)
}

// Table renders the scorecard as fixed-width text, one technique per
// row, primary metric inline.
func (s *Scorecard) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-28s %12s %12s %8s %8s  %s\n",
		"technique", "primary metric", "before", "after", "gain", "cost", "verdict")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 110))
	for _, o := range s.Outcomes {
		if o.Err != nil {
			fmt.Fprintf(&b, "%-22s ERROR[%s]: %v\n", o.Technique, errKind(o.Err), o.Err)
			continue
		}
		p, _ := o.Primary()
		fmt.Fprintf(&b, "%-22s %-28s %12.4g %12.4g %7.1f%% %7.1f%%  %s\n",
			o.Technique, p.Name+" ("+p.Unit+")", p.Before, p.After,
			100*p.Gain(), 100*o.CostFrac, o.Verdict)
	}
	return b.String()
}

// Detail renders every metric of every outcome.
func (s *Scorecard) Detail() string {
	var b strings.Builder
	for _, o := range s.Outcomes {
		fmt.Fprintf(&b, "== %s [%s] cost=%.2f%% (%s) runtime=%v\n",
			o.Technique, o.Verdict, 100*o.CostFrac, o.CostNote, o.Runtime.Round(time.Millisecond))
		if d, ok := techniqueNamed(o.Technique); ok {
			fmt.Fprintf(&b, "   %s: %s\n", d.Bar(), d.Why)
		}
		if o.Err != nil {
			fmt.Fprintf(&b, "   error[%s]: %v\n", errKind(o.Err), o.Err)
			var he *harness.Error
			if errors.As(o.Err, &he) && len(he.Stack) > 0 {
				for _, line := range strings.Split(strings.TrimRight(string(he.Stack), "\n"), "\n") {
					fmt.Fprintf(&b, "     %s\n", line)
				}
			}
			continue
		}
		for _, m := range o.Metrics {
			star := " "
			if m.Primary {
				star = "*"
			}
			fmt.Fprintf(&b, "  %s %-30s %12.5g -> %-12.5g %s (gain %+.1f%%)\n",
				star, m.Name, m.Before, m.After, m.Unit, 100*m.Gain())
		}
	}
	return b.String()
}

// Hits counts outcomes per verdict.
func (s *Scorecard) Hits() (hit, marginal, hype int) {
	for _, o := range s.Outcomes {
		switch o.Verdict {
		case Hit:
			hit++
		case Marginal:
			marginal++
		default:
			hype++
		}
	}
	return
}

// errKind names the harness classification of an outcome error for
// the text renderers ("timeout", "panic", "workload", "canceled", or
// "error" for unclassified failures).
func errKind(err error) string {
	return harness.KindOf(err).String()
}

// OutcomeView is the serializable view of an Outcome — the shape the
// scorecard JSON and the dfmd service both put on the wire.
type OutcomeView struct {
	Technique string  `json:"technique"`
	Verdict   string  `json:"verdict"`
	CostFrac  float64 `json:"costFrac"`
	CostNote  string  `json:"costNote,omitempty"`
	RuntimeMS float64 `json:"runtimeMs"`
	Error     string  `json:"error,omitempty"`
	// ErrorKind is the harness taxonomy bucket of Error: "timeout",
	// "panic", "workload", "canceled", or "error".
	ErrorKind string   `json:"errorKind,omitempty"`
	Metrics   []Metric `json:"metrics,omitempty"`
}

// NewOutcomeView flattens an Outcome into its wire shape, rendering
// the error through the harness taxonomy.
func NewOutcomeView(o Outcome) OutcomeView {
	v := OutcomeView{
		Technique: o.Technique,
		Verdict:   o.Verdict.String(),
		CostFrac:  o.CostFrac,
		CostNote:  o.CostNote,
		RuntimeMS: float64(o.Runtime.Microseconds()) / 1000,
		Metrics:   o.Metrics,
	}
	if o.Err != nil {
		v.Error = o.Err.Error()
		v.ErrorKind = errKind(o.Err)
	}
	return v
}

// JSON renders the scorecard as machine-readable JSON (for dashboards
// and regression tracking of the experiment results).
func (s *Scorecard) JSON() ([]byte, error) {
	out := make([]OutcomeView, 0, len(s.Outcomes))
	for _, o := range s.Outcomes {
		out = append(out, NewOutcomeView(o))
	}
	return json.MarshalIndent(out, "", "  ")
}
