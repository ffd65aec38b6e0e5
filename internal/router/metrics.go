package router

import "repro/internal/obs"

// mE2E is the router-side submit-to-settle latency, including every
// failover hop and backoff. Counts live in Router.Stats and each
// Backend's record only.
var mE2E = obs.H("dfmrouter.e2e_ns")
