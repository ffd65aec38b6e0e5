package fleet_test

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// killAfter wraps a TileClient and hard-kills a node after the Nth
// submission — deterministic mid-chip chaos, unlike the wall-clock
// timers dfmload uses.
type killAfter struct {
	inner tiling.TileClient
	after int64
	kill  func()

	n    atomic.Int64
	once sync.Once
}

func (k *killAfter) EvalTile(ctx context.Context, req *tiling.TileRequest) (*tiling.TileResult, tiling.TileServed, error) {
	if k.n.Add(1) > k.after {
		k.once.Do(k.kill)
	}
	return k.inner.EvalTile(ctx, req)
}

func testChip(t *testing.T, seed int64) *layout.Cell {
	t.Helper()
	l, _, err := layout.GenerateChip(tech.N45(), layout.ChipOpts{
		Seed: seed, Slots: 2, SlotPitch: 15000, Defects: 3,
		MacroMix: []int{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatalf("GenerateChip: %v", err)
	}
	return l.Top
}

// The end-to-end distributed differential: a chip fanned across two
// dfmd backends through the router must stitch bit-identically to the
// single-process evaluation — warm, cold, and with a backend
// hard-killed mid-chip. A lost or double-counted tile would break
// Equivalent, so exactness is also the no-loss/no-dup check.
func TestFleetDistributedChipBitIdentical(t *testing.T) {
	cl, err := fleet.Start(fleet.Options{Nodes: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	tt := tech.N45()
	o := tiling.Opts{Tile: 9000, Halo: 2000, Workers: 4,
		DRC: true, Density: true, DensityWindow: 3000}
	sub := &client.TileSubmitter{
		C:      client.New(cl.URL, nil),
		Policy: client.NewRetryPolicy(8, 1),
	}
	ctx := context.Background()

	// Chip A, cold fleet.
	topA := testChip(t, 3)
	localA, err := tiling.Evaluate(ctx, tt, tiling.NewExtractor(topA), o)
	if err != nil {
		t.Fatalf("local evaluate A: %v", err)
	}
	if len(localA.Violations) == 0 {
		t.Fatal("chip A produced no violations; differential is vacuous")
	}
	distA, err := tiling.DistEvaluate(ctx, tt, tiling.NewExtractor(topA), o, sub)
	if err != nil {
		t.Fatalf("distributed evaluate A: %v", err)
	}
	if !tiling.Equivalent(distA, localA) {
		t.Fatal("distributed chip A diverged from single-process result")
	}
	if distA.Stats.RemoteTiles == 0 {
		t.Fatal("no tiles went over the wire")
	}

	// Chip A again: every non-empty tile is already in some node's
	// cache, and affinity routes each key back to the node that holds
	// it — the whole chip must be served without recomputation.
	distA2, err := tiling.DistEvaluate(ctx, tt, tiling.NewExtractor(topA), o, sub)
	if err != nil {
		t.Fatalf("distributed re-evaluate A: %v", err)
	}
	if !tiling.Equivalent(distA2, localA) {
		t.Fatal("fleet-cached chip A diverged from single-process result")
	}
	if got, want := distA2.Stats.RemoteCached+distA2.Stats.RemoteDeduped, distA2.Stats.RemoteTiles; got != want {
		t.Errorf("re-run served %d of %d remote tiles from fleet caches", got, want)
	}
	if rs := cl.RT.Stats(); rs.TileReused == 0 {
		t.Errorf("router counted no reused tiles after identical re-run: %+v", rs)
	}

	// Chip B with a backend hard-killed after the 2nd submission:
	// in-flight and future tiles owned by n0 must fail over to n1 and
	// the stitched result must still be exact.
	topB := testChip(t, 4)
	localB, err := tiling.Evaluate(ctx, tt, tiling.NewExtractor(topB), o)
	if err != nil {
		t.Fatalf("local evaluate B: %v", err)
	}
	chaos := &killAfter{inner: sub, after: 2, kill: func() {
		cl.Kill(0)
		t.Log("chaos: killed backend n0 mid-chip")
	}}
	distB, err := tiling.DistEvaluate(ctx, tt, tiling.NewExtractor(topB), o, chaos)
	if err != nil {
		t.Fatalf("distributed evaluate B with mid-chip kill: %v", err)
	}
	if !tiling.Equivalent(distB, localB) {
		t.Fatal("distributed chip B with mid-chip kill diverged from single-process result")
	}

	// The dead node must be survivable AND restartable on its slot.
	if err := cl.Restart(0); err != nil {
		t.Fatalf("restart n0: %v", err)
	}
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rs := cl.RT.Stats()
	if rs.TileJobs == 0 {
		t.Errorf("router tile accounting empty after three chips: %+v", rs)
	}
	t.Logf("router after run: ok=%d failed=%d retries=%d failovers=%d tileJobs=%d tileReused=%d",
		rs.OK, rs.Failed, rs.Retries, rs.Failovers, rs.TileJobs, rs.TileReused)
}

// BenchmarkFleetChip is the fleet path with nothing else around it, the
// shape `make fleetprofile` profiles: the 50k-rect signoff chip through
// a router to two in-process nodes, pass A on a cold fleet with a fresh
// local cache (only distinct tiles travel) and pass B with the local
// cache off (every tile travels and is answered from a node cache). A
// fresh cluster per iteration, started off the clock.
func BenchmarkFleetChip(b *testing.B) {
	tt := tech.N45()
	l, _, err := layout.GenerateChip(tt, layout.ChipOpts{Seed: 11, TargetRects: 50_000, Defects: 8})
	if err != nil {
		b.Fatal(err)
	}
	ex := tiling.NewExtractor(l.Top)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := fleet.Start(fleet.Options{Nodes: 2, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.WaitReady(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
		sub := &client.TileSubmitter{C: client.New(cl.URL, &http.Client{Transport: tr}), Policy: client.NewRetryPolicy(4, 1)}
		oa := tiling.Opts{Tile: 24000, Halo: 2000, Workers: 2, DRC: true, Density: true, DensityWindow: 3000}
		ob := oa
		oa.Cache = tiling.NewCache(0)
		b.StartTimer()
		ra, err := tiling.DistEvaluate(ctx, tt, ex, oa, sub)
		if err != nil {
			b.Fatalf("pass A: %v", err)
		}
		rb, err := tiling.DistEvaluate(ctx, tt, ex, ob, sub)
		if err != nil {
			b.Fatalf("pass B: %v", err)
		}
		b.StopTimer()
		if eq := tiling.Equivalent(ra, rb); !eq || rb.Stats.RemoteCached != rb.Stats.RemoteTiles {
			b.Fatalf("pass B: equivalent to A %v, %d of %d units from node caches",
				eq, rb.Stats.RemoteCached, rb.Stats.RemoteTiles)
		}
		tr.CloseIdleConnections()
		cl.Stop()
		b.StartTimer()
	}
}
