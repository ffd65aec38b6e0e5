package dfm

import (
	"time"

	"repro/internal/obs"
)

// stage times one named phase of a technique evaluator under
// "dfm.<technique>.<stage>.ns". The returned span is a no-op (and the
// name lookup is skipped entirely) while the metrics registry is off,
// so evaluators can call it unconditionally.
func stage(technique, name string) obs.Span {
	return obs.StartSpan("dfm." + technique + "." + name + ".ns")
}

// track stamps the outcome's runtime when the evaluation returns,
// including early error returns, and feeds it to the per-technique
// wall-clock histogram.
func track(o *Outcome) func() {
	start := time.Now()
	return func() {
		o.Runtime = time.Since(start)
		obs.ObserveNS("dfm."+o.Technique+".total.ns", o.Runtime)
	}
}
