package server

import "repro/internal/obs"

// mE2E is submit-to-settle latency per job, including queue wait and
// cache/dedup fast paths. Counts live in Server.Stats only.
var mE2E = obs.H("dfmd.e2e_ns")
