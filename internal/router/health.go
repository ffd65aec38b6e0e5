package router

import (
	"context"
	"sync"
	"time"

	"repro/internal/client"
)

// state is a backend's one eligibility verdict.
type state int

const (
	up    state = iota // admits every request
	trial              // admits one request, whose outcome decides
	down               // admits none
)

// health is a backend's one health record: probe results and
// data-path outcomes fold into it under one lock, and pick asks only
// it whether the backend may take a request.
//
//   - Down: FailAfter consecutive failed probes take it down, and so do
//     FailAfter consecutive data-path faults. Each streak is reset only
//     by its own kind of success, so clean probes cannot hide a
//     black-holed job path. A drain signal (a probe or a submission
//     answering draining) takes it down at once: drain is deliberate,
//     not noise.
//   - Trial: RiseAfter consecutive clean probes move a down backend to
//     trial. A node has to prove recovery on probes before any live
//     request reaches it, which is what keeps a crash-looping backend
//     from absorbing and killing live requests.
//   - Up: a trial admits exactly one request. Anything but a fault as
//     its outcome (done, 429, a terminal answer) makes the backend up;
//     a fault sends it back down, to earn RiseAfter fresh probes.
//
// Backends start up (optimistic).
type health struct {
	failAfter, riseAfter int

	mu         sync.Mutex
	state      state
	probeFails int  // consecutive failed probes
	probeOKs   int  // consecutive clean probes since the last failure or eviction
	dataFails  int  // consecutive data-path faults
	trialOut   bool // the trial's one request is claimed and not yet settled
}

// admit reports whether the backend may take a request, and whether
// that request is a trial's one, whose outcome settle must be told.
func (h *health) admit() (ok, isTrial bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.state == up:
		return true, false
	case h.state == trial && !h.trialOut:
		h.trialOut = true
		return true, true
	}
	return false, false
}

// admitting reports whether the backend takes traffic: up or on trial.
func (h *health) admitting() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state != down
}

// probed folds in one probe's result, read by client.ClassOf (answered,
// draining, or anything else: a failed probe), and returns the state
// before and after.
func (h *health) probed(err error) (from, to state) {
	c := client.ClassOf(err)
	h.mu.Lock()
	defer h.mu.Unlock()
	from = h.state
	switch c {
	case client.ClassOK:
		h.probeFails = 0
		h.probeOKs++
		if h.state == down && h.probeOKs >= h.riseAfter {
			h.state = trial
		}
	case client.ClassDraining:
		h.evict()
	default:
		h.probeFails++
		h.probeOKs = 0
		if h.probeFails >= h.failAfter {
			h.evict()
		}
	}
	return from, h.state
}

// settle folds in the class of one admitted request's outcome and
// returns the state before and after. A down backend leaves down on
// probes only: a late answer to a request admitted before the eviction
// moves nothing but the data-path streak.
func (h *health) settle(isTrial bool, c client.Class) (from, to state) {
	h.mu.Lock()
	defer h.mu.Unlock()
	from = h.state
	if isTrial {
		h.trialOut = false
	}
	switch c {
	case client.ClassDraining:
		h.evict()
	case client.ClassFault:
		h.dataFails++
		if h.state != down && (h.dataFails >= h.failAfter || isTrial) {
			h.evict()
		}
	default:
		h.dataFails = 0
		if isTrial && h.state == trial {
			h.state = up
		}
	}
	return from, h.state
}

func (h *health) evict() {
	h.state = down
	h.probeOKs = 0
}

// healthLoop probes one backend's /healthz on an interval.
func (r *Router) healthLoop(b *Backend) {
	defer r.loops.Done()
	t := time.NewTicker(r.cfg.CheckInterval)
	defer t.Stop()
	for {
		r.probe(b)
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

// probe runs one health check and folds the result into the
// backend's record.
func (r *Router) probe(b *Backend) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.CheckTimeout)
	err := b.cl.Healthz(ctx)
	cancel()
	from, to := b.health.probed(err)
	r.note(b, from, to, err)
}

// note counts and logs a backend's change of state: into down is an
// eviction, from down onto trial a reinstatement.
func (r *Router) note(b *Backend, from, to state, err error) {
	switch {
	case from != down && to == down:
		b.evictions.Add(1)
		r.logf("router: backend %s evicted (%v)", b.Name, err)
	case from == down && to == trial:
		b.reinstates.Add(1)
		r.logf("router: backend %s reinstated on trial after %d clean probes", b.Name, r.cfg.RiseAfter)
	}
}
