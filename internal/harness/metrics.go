package harness

import (
	"repro/internal/obs"
)

// Harness instrumentation: per-run pool stats and per-technique outcome
// accounting. Aggregate instruments are cached here; per-technique
// counters are looked up by name only while the metrics registry is
// recording.
var (
	hQueueWait = obs.H("harness.queue_wait_ns")
	hTaskNS    = obs.H("harness.task_ns")

	cTimeouts = obs.C("harness.timeouts")
	cPanics   = obs.C("harness.panics")
	cWorkload = obs.C("harness.workload_errors")
	cCanceled = obs.C("harness.canceled")
)

// recordTask folds one settled task into the metrics registry: its
// final-outcome kind and wall-clock runtime, each both in aggregate and
// per technique ("harness.<metric>.<technique>").
func recordTask(name string, res Result) {
	if !obs.Enabled() {
		return
	}
	hTaskNS.Observe(float64(res.Runtime))
	obs.ObserveNS("harness.task_ns."+name, res.Runtime)
	var agg *obs.Counter
	var metric string
	switch KindOf(res.Err) {
	case KindTimeout:
		agg, metric = cTimeouts, "timeouts"
	case KindPanic:
		agg, metric = cPanics, "panics"
	case KindWorkload:
		agg, metric = cWorkload, "workload_errors"
	case KindCanceled:
		agg, metric = cCanceled, "canceled"
	default:
		return
	}
	agg.Inc()
	obs.C("harness." + metric + "." + name).Inc()
}
