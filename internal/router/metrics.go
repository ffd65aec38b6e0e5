package router

import "repro/internal/obs"

// obs mirrors of the router counters, alongside the dfmd.* server
// metrics in registry snapshots. Authoritative always-on accounting
// is Router.Stats; these record only while the registry is enabled.
var (
	mRequests   = obs.C("dfmrouter.requests")
	mOK         = obs.C("dfmrouter.ok")
	mRetries    = obs.C("dfmrouter.retries")
	mFailovers  = obs.C("dfmrouter.failovers")
	mFailed     = obs.C("dfmrouter.failed")
	mNoBackend  = obs.C("dfmrouter.no_backend")
	mBudgetDeny = obs.C("dfmrouter.retry_budget_denied")
	mEvicted    = obs.C("dfmrouter.evicted")
	mReinstated = obs.C("dfmrouter.reinstated")

	// Distributed tile traffic (full-chip fan-out through the fleet).
	mTileJobs   = obs.C("dfmrouter.tile_jobs")
	mTileReused = obs.C("dfmrouter.tile_reused")

	// mE2E is the router-side submit-to-settle latency, including
	// every failover hop and backoff.
	mE2E = obs.H("dfmrouter.e2e_ns")
)
