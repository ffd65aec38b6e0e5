package faultinject

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// TransportFaultKind names one way an HTTP hop can die. These model
// the cluster failure modes a router must survive: a dead process
// (refused), a wedged one (hang), a process killed mid-response
// (reset), and a recovering or overloaded one (slow).
type TransportFaultKind int

const (
	// Refuse fails immediately with ECONNREFUSED, as if nothing is
	// listening on the port.
	Refuse TransportFaultKind = iota
	// Hang black-holes the request: no bytes ever move, and the call
	// returns only when the request context gives up.
	Hang
	// Reset lets the request through but kills the response body
	// after AfterBytes bytes, like a peer closing mid-transfer.
	Reset
	// Slow stalls the request by Delay before forwarding it — the
	// slow-start shape of a node paging its cache back in.
	Slow
)

func (k TransportFaultKind) String() string {
	switch k {
	case Refuse:
		return "refuse"
	case Hang:
		return "hang"
	case Reset:
		return "reset"
	case Slow:
		return "slow"
	}
	return fmt.Sprintf("TransportFaultKind(%d)", int(k))
}

// TransportFault is one planned transport failure.
type TransportFault struct {
	Kind TransportFaultKind
	// Delay is the added latency for Slow faults.
	Delay time.Duration
	// AfterBytes is how much of the response body a Reset fault
	// delivers before failing (0 = fail on the first read).
	AfterBytes int
	// Path, when non-empty, restricts the fault to requests whose
	// URL path starts with it. Requests to other paths pass through
	// without consuming the fault — e.g. faulting "/v1/jobs" while
	// health probes to /healthz stay clean, so eviction timing and
	// data-path failover can be tested independently.
	Path string
	// Times is how many consecutive requests this fault covers
	// (0 means 1).
	Times int
}

// Transport is a deterministic fault-injecting http.RoundTripper:
// plan faults per destination host, in order, a fixed number of
// times — same plan, same failure sequence, like Set does for
// evaluator attempts. Requests to hosts with an exhausted (or empty)
// plan pass straight through to the base transport.
type Transport struct {
	base http.RoundTripper

	mu    sync.Mutex
	plans map[string][]TransportFault
	fired map[string]int
}

// NewTransport wraps base (nil means http.DefaultTransport).
func NewTransport(base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		base:  base,
		plans: make(map[string][]TransportFault),
		fired: make(map[string]int),
	}
}

// PlanHost appends a fault for requests to the given host:port and
// returns the transport for chaining.
func (t *Transport) PlanHost(host string, f TransportFault) *Transport {
	n := f.Times
	if n < 1 {
		n = 1
	}
	f.Times = 1
	t.mu.Lock()
	for i := 0; i < n; i++ {
		t.plans[host] = append(t.plans[host], f)
	}
	t.mu.Unlock()
	return t
}

// Fired returns how many faults have fired against the host.
func (t *Transport) Fired(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fired[host]
}

// RoundTrip consumes the host's next planned fault whose Path filter
// matches the request, if any. Order is preserved within each
// matching class.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	q := t.plans[host]
	idx := -1
	for i, f := range q {
		if f.Path == "" || strings.HasPrefix(req.URL.Path, f.Path) {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.mu.Unlock()
		return t.base.RoundTrip(req)
	}
	f := q[idx]
	t.plans[host] = append(q[:idx:idx], q[idx+1:]...)
	t.fired[host]++
	t.mu.Unlock()

	switch f.Kind {
	case Refuse:
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	case Hang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case Slow:
		tm := time.NewTimer(f.Delay)
		defer tm.Stop()
		select {
		case <-tm.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.base.RoundTrip(req)
	case Reset:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &resetBody{rc: resp.Body, left: f.AfterBytes}
		return resp, nil
	}
	return t.base.RoundTrip(req)
}

// resetBody delivers at most `left` bytes, then fails reads with
// ECONNRESET — a peer that died mid-response.
type resetBody struct {
	rc   io.ReadCloser
	left int
}

func (b *resetBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	if err == nil && b.left <= 0 {
		// The truncation point is reached; the *next* read resets.
		return n, nil
	}
	return n, err
}

func (b *resetBody) Close() error { return b.rc.Close() }
