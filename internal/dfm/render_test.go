package dfm

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// errorScorecard builds a scorecard covering every error class the
// harness can produce, plus one healthy outcome.
func errorScorecard() *Scorecard {
	sc := &Scorecard{}
	sc.Add(Outcome{
		Technique: "healthy",
		Metrics:   []Metric{{Name: "m", Before: 1, After: 2, Unit: "x", HigherIsBetter: true, Primary: true}},
		Verdict:   Hit,
		Attempts:  1,
		Runtime:   5 * time.Millisecond,
	})
	sc.Add(Outcome{
		Technique: "timed-out",
		Attempts:  1,
		Err:       &harness.Error{Kind: harness.KindTimeout, Technique: "timed-out", Attempts: 1, Err: errors.New("context deadline exceeded")},
	})
	sc.Add(Outcome{
		Technique: "crashed",
		Attempts:  1,
		Err: &harness.Error{Kind: harness.KindPanic, Technique: "crashed", Attempts: 1,
			Stack: []byte("goroutine 7 [running]:\nrepro/internal/dfm.EvalBoom(...)\n"),
			Err:   errors.New("index out of range")},
	})
	sc.Add(Outcome{
		Technique: "bad-workload",
		Attempts:  3,
		Err:       &harness.Error{Kind: harness.KindWorkload, Technique: "bad-workload", Attempts: 3, Retryable: true, Err: errors.New("no hotspots on test design")},
	})
	sc.Add(Outcome{
		Technique: "plain-failure",
		Attempts:  1,
		Err:       errors.New("unclassified evaluation failure"),
	})
	return sc
}

func TestTableRendersTypedErrors(t *testing.T) {
	tbl := errorScorecard().Table()
	for _, want := range []string{
		"ERROR[timeout]",
		"ERROR[panic]: panic: index out of range",
		"ERROR[workload]: workload after 3 attempts: no hotspots",
		"ERROR[error]: unclassified evaluation failure",
		"HIT",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	// One row per outcome, errors included: header + rule + 5 rows.
	if n := strings.Count(strings.TrimRight(tbl, "\n"), "\n"); n != 6 {
		t.Errorf("table row count off (%d newlines):\n%s", n, tbl)
	}
}

func TestDetailRendersErrorsAndPanicStack(t *testing.T) {
	det := errorScorecard().Detail()
	for _, want := range []string{
		"error[timeout]:",
		"error[panic]:",
		"goroutine 7 [running]:",
		"repro/internal/dfm.EvalBoom",
		"error[workload]:",
		"error[error]: unclassified evaluation failure",
	} {
		if !strings.Contains(det, want) {
			t.Errorf("detail missing %q:\n%s", want, det)
		}
	}
	// The healthy outcome still renders its metric line.
	if !strings.Contains(det, "healthy") || !strings.Contains(det, "gain") {
		t.Errorf("healthy outcome lost in detail:\n%s", det)
	}
}

func TestJSONSerializesErrorTaxonomy(t *testing.T) {
	b, err := errorScorecard().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if len(rows) != 5 {
		t.Fatalf("JSON row count = %d", len(rows))
	}
	byName := map[string]map[string]any{}
	for _, r := range rows {
		byName[r["technique"].(string)] = r
	}

	if r := byName["timed-out"]; r["errorKind"] != "timeout" || r["verdict"] != "HYPE" {
		t.Errorf("timeout row: %v", r)
	}
	if r := byName["crashed"]; r["errorKind"] != "panic" {
		t.Errorf("panic row: %v", r)
	}
	r := byName["bad-workload"]
	if r["errorKind"] != "workload" || r["retryable"] != true || r["attempts"] != float64(3) {
		t.Errorf("workload row: %v", r)
	}
	if !strings.Contains(r["error"].(string), "no hotspots") {
		t.Errorf("workload row lost its message: %v", r["error"])
	}
	if r := byName["plain-failure"]; r["errorKind"] != "error" || r["retryable"] != nil {
		t.Errorf("plain error row: %v", r)
	}
	// Healthy rows carry no error fields at all.
	h := byName["healthy"]
	for _, k := range []string{"error", "errorKind", "retryable"} {
		if _, ok := h[k]; ok {
			t.Errorf("healthy row has %s: %v", k, h[k])
		}
	}
}
