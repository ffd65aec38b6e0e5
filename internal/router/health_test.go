package router

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
)

// hop is one event a test feeds a health record.
type hop byte

const (
	hProbeOK hop = iota
	hProbeFault
	hProbeDrain
	hAdmit
	hDataOK    // settles an outstanding request as done
	hDataFault // settles an outstanding request as a fault
	numHops
)

// healthModel is the reference the record is held to: the rules of
// the health doc comment, one event at a time.
type healthModel struct {
	failAfter, riseAfter int
	st                   state
	claimed              bool // the trial's request is out
	probeFails, probeOKs int
	dataFails            int
}

func (m *healthModel) probe(e hop) {
	switch e {
	case hProbeOK:
		m.probeFails = 0
		if m.probeOKs++; m.st == down && m.probeOKs >= m.riseAfter {
			m.st = trial
		}
	case hProbeFault:
		m.probeOKs = 0
		if m.probeFails++; m.probeFails >= m.failAfter {
			m.st = down
		}
	case hProbeDrain:
		m.probeOKs = 0
		m.st = down
	}
}

func (m *healthModel) admit() (ok, isTrial bool) {
	if m.st == up {
		return true, false
	}
	if m.st == trial && !m.claimed {
		m.claimed = true
		return true, true
	}
	return false, false
}

func (m *healthModel) settle(isTrial, fault bool) {
	if isTrial {
		m.claimed = false
	}
	if !fault {
		m.dataFails = 0
		if isTrial && m.st == trial {
			m.st = up
		}
		return
	}
	m.dataFails++
	if m.st != down && (isTrial || m.dataFails >= m.failAfter) {
		m.st, m.probeOKs = down, 0
	}
}

// runHealth drives a record and the model with in: in[0] and in[1]
// pick FailAfter and RiseAfter (1–4), and each later byte is an event,
// byte%numHops, whose byte/numHops picks which outstanding request a
// data event settles. It fails t on any disagreement with the model or
// broken invariant, and returns the record's final state.
func runHealth(t *testing.T, in []byte) state {
	if len(in) < 2 {
		return up
	}
	failAfter, riseAfter := 1+int(in[0]%4), 1+int(in[1]%4)
	h := &health{failAfter: failAfter, riseAfter: riseAfter}
	m := &healthModel{failAfter: failAfter, riseAfter: riseAfter}
	var out []bool // outstanding requests, true for a trial's
	// Streaks counted from the event stream alone, for the invariants.
	var probeFaults, dataFaults, cleanProbes int
	for i, c := range in[2:] {
		e, from := hop(c%byte(numHops)), h.state
		switch e {
		case hProbeOK, hProbeFault, hProbeDrain:
			var err error
			switch e {
			case hProbeFault:
				err = errors.New("probe timed out")
			case hProbeDrain:
				err = client.ErrDraining
			}
			h.probed(err)
			m.probe(e)
			if e == hProbeOK {
				probeFaults = 0
				cleanProbes++
			} else {
				probeFaults++
				cleanProbes = 0
			}
		case hAdmit:
			ok, isTrial := h.admit()
			wantOK, wantTrial := m.admit()
			if ok != wantOK || isTrial != wantTrial {
				t.Fatalf("event %d: admit = %v (trial %v) in state %d, model says %v (trial %v)", i, ok, isTrial, from, wantOK, wantTrial)
			}
			if ok && from == down {
				t.Fatalf("event %d: admitted while down", i)
			}
			if ok {
				out = append(out, isTrial)
			}
			trials := 0
			for _, tr := range out {
				if tr {
					trials++
				}
			}
			if trials > 1 {
				t.Fatalf("event %d: %d trial requests outstanding", i, trials)
			}
		case hDataOK, hDataFault:
			if len(out) == 0 {
				continue
			}
			k := int(c/byte(numHops)) % len(out)
			isTrial, fault := out[k], e == hDataFault
			out = append(out[:k], out[k+1:]...)
			c := client.ClassOK
			if fault {
				c = client.ClassFault
				dataFaults++
			} else {
				dataFaults = 0
			}
			h.settle(isTrial, c)
			m.settle(isTrial, fault)
		}
		if h.state != m.st {
			t.Fatalf("event %d (%d): state %d, model says %d", i, e, h.state, m.st)
		}
		if h.state == down && from != down {
			cleanProbes = 0
		}
		switch {
		case (e == hProbeFault || e == hProbeDrain) && probeFaults >= failAfter && h.state != down,
			e == hProbeDrain && h.state != down,
			e == hDataFault && dataFaults >= failAfter && h.state != down:
			t.Fatalf("event %d (%d): %d probe / %d data faults in a row at FailAfter %d left state %d", i, e, probeFaults, dataFaults, failAfter, h.state)
		case e == hProbeOK && from == down && cleanProbes >= riseAfter && h.state != trial:
			t.Fatalf("event %d: %d clean probes from down at RiseAfter %d left state %d, want trial", i, cleanProbes, riseAfter, h.state)
		}
	}
	return h.state
}

// healthCase is one of the record's rules as a plain case; each is
// also a seed of FuzzBackendHealth.
type healthCase struct {
	name                 string
	failAfter, riseAfter int
	events               []hop
	want                 state
}

var healthCases = []healthCase{
	{"FailAfter data faults in a row evict", 3, 2,
		[]hop{hAdmit, hDataFault, hAdmit, hDataFault, hAdmit, hDataFault}, down},
	{"a done request breaks the data streak", 3, 2,
		[]hop{hAdmit, hDataFault, hAdmit, hDataFault, hAdmit, hDataOK, hAdmit, hDataFault, hAdmit, hDataFault}, up},
	{"clean probes do not break the data streak", 2, 2,
		[]hop{hAdmit, hDataFault, hProbeOK, hProbeOK, hProbeOK, hAdmit, hDataFault}, down},
	{"FailAfter failed probes evict", 2, 2,
		[]hop{hProbeFault, hProbeOK, hProbeFault, hProbeFault}, down},
	{"a drain evicts at once", 3, 2, []hop{hProbeDrain}, down},
	{"RiseAfter clean probes open a trial of one request", 1, 2,
		[]hop{hAdmit, hDataFault, hProbeOK, hAdmit, hProbeOK, hAdmit, hAdmit}, trial},
	{"a trial that ends done makes the backend up", 1, 2,
		[]hop{hAdmit, hDataFault, hProbeOK, hProbeOK, hAdmit, hAdmit, hDataOK, hAdmit, hAdmit}, up},
	{"a failed trial needs RiseAfter fresh probes", 1, 2,
		[]hop{hAdmit, hDataFault, hProbeOK, hProbeOK, hAdmit, hDataFault, hProbeOK, hAdmit}, down},
	{"a late answer does not lift an eviction", 2, 2,
		[]hop{hAdmit, hAdmit, hProbeDrain, hDataOK, hAdmit, hProbeOK}, down},
}

func (c healthCase) bytes() []byte {
	in := []byte{byte(c.failAfter - 1), byte(c.riseAfter - 1)}
	for _, e := range c.events {
		in = append(in, byte(e))
	}
	return in
}

func TestBackendHealthCases(t *testing.T) {
	for _, c := range healthCases {
		t.Run(c.name, func(t *testing.T) {
			if got := runHealth(t, c.bytes()); got != c.want {
				t.Fatalf("final state %d, want %d", got, c.want)
			}
		})
	}
}

// FuzzBackendHealth holds the health record to its model over any
// sequence of probe results, admissions and request outcomes
// (go test -run='^$' -fuzz=FuzzBackendHealth ./internal/router).
func FuzzBackendHealth(f *testing.F) {
	for _, c := range healthCases {
		f.Add(c.bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) { runHealth(t, in) })
}

// TestHealthOneTrialUnderContention: requests racing to admit on a
// backend on trial, while its probes keep landing, get one trial
// between them.
func TestHealthOneTrialUnderContention(t *testing.T) {
	h := &health{failAfter: 1, riseAfter: 1, state: down}
	h.probed(nil)
	var trials atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g == 0 {
					h.probed(nil)
				} else if ok, isTrial := h.admit(); ok && isTrial {
					trials.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := trials.Load(); n != 1 {
		t.Fatalf("%d requests admitted as the trial, want 1", n)
	}
	if ok, _ := h.admit(); ok {
		t.Fatal("a second request admitted while the trial is out")
	}
}
