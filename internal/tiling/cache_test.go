package tiling

import (
	"context"
	"crypto/sha256"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/tech"
)

// A repetitive floorplan (every slot the same macro, slot-aligned
// tiles) must share tile work: one miss per unique tile content, hits
// for every repeat. Interior tiles are all identical (36 of 64 on an
// 8x8 grid); edge tiles see the seal ring at distinct offsets and
// cannot share. The cached run must still be bit-identical to the
// uncached one, and a second evaluation through the same cache must
// hit on every non-empty tile.
func TestCacheHitRateAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("64-tile chip evaluation is slow; skipped in -short")
	}
	tt := tech.N45()
	top := chipTop(t, layout.ChipOpts{
		Seed: 9, Slots: 8, SlotPitch: 24000,
		MacroMix: []int{0, 0, 0, 1}, // all viafarm: maximally repetitive
	})
	o := Opts{Tile: 24000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000, KeepDensityMaps: true}

	plain, err := EvaluateChip(context.Background(), tt, top, o)
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}

	o.Cache = NewCache(0)
	ex := NewExtractor(top)
	cached, err := Evaluate(context.Background(), tt, ex, o)
	if err != nil {
		t.Fatalf("cached: %v", err)
	}
	diffResultsEqual(t, "cached vs uncached", cached, plain)

	st := cached.Stats
	if st.TileHits+st.TileMisses != int64(st.Tiles-st.EmptyTiles) {
		t.Fatalf("cache accounting: %d hits + %d misses != %d non-empty tiles",
			st.TileHits, st.TileMisses, st.Tiles-st.EmptyTiles)
	}
	rate := float64(st.TileHits) / float64(st.TileHits+st.TileMisses)
	if rate <= 0.5 {
		t.Fatalf("tile cache hit rate %.2f (%d/%d), want > 0.5 on the repetitive floorplan",
			rate, st.TileHits, st.TileHits+st.TileMisses)
	}

	// Second evaluation through the warm cache: pure replay.
	again, err := Evaluate(context.Background(), tt, ex, o)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	diffResultsEqual(t, "replay vs uncached", again, plain)
	if again.Stats.TileMisses != 0 {
		t.Fatalf("warm cache: %d misses, want 0", again.Stats.TileMisses)
	}
}

// slowLoopback is the wire loopback with a few milliseconds of latency
// per unit, so that workers reaching one key together overlap in
// flight, and a record of every key it was asked for.
type slowLoopback struct {
	loopback
	mu   sync.Mutex
	keys map[[sha256.Size]byte]bool
}

func (s *slowLoopback) EvalTile(ctx context.Context, req *TileRequest) (*TileResult, TileServed, error) {
	k, err := req.Key()
	if err != nil {
		return nil, TileServed{}, err
	}
	s.mu.Lock()
	s.keys[k] = true
	s.mu.Unlock()
	time.Sleep(3 * time.Millisecond)
	return s.loopback.EvalTile(ctx, req)
}

// A cache computes each key once, however many workers reach it at
// the same time: a worker asking for a key in flight waits for it and
// counts a hit. So over a slow fleet and eight workers the units sent
// are the distinct unit keys, every miss is one of them, and two runs
// of the same chip count the same hits.
func TestCacheComputesEachKeyOnce(t *testing.T) {
	tt := tech.N45()
	top := chipTop(t, layout.ChipOpts{
		Seed: 9, Slots: 4, SlotPitch: 24000,
		MacroMix: []int{0, 0, 0, 1},
	})
	o := Opts{Tile: 24000, Halo: 2000, DRC: true, Density: true, DensityWindow: 3000,
		Hotspots: []tech.Layer{tech.Metal1}, Workers: 8}
	var first Stats
	for run := range 2 {
		o.Cache = NewCache(0)
		lb := &slowLoopback{keys: map[[sha256.Size]byte]bool{}}
		res, err := DistEvaluate(context.Background(), tt, NewExtractor(top), o, lb)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		st := res.Stats
		sent := lb.tiles.Load() + lb.windows.Load()
		if misses := st.TileMisses + st.WindowMisses; sent != misses || misses != int64(len(lb.keys)) {
			t.Errorf("run %d: %d units sent, %d misses, %d distinct unit keys; want all three equal",
				run, sent, misses, len(lb.keys))
		}
		if st.TileHits == 0 || st.WindowHits == 0 {
			t.Errorf("run %d: %d tile hits, %d window hits on a repeated-macro chip; want both > 0",
				run, st.TileHits, st.WindowHits)
		}
		if run == 0 {
			first = st
		} else if st.TileHits != first.TileHits || st.WindowHits != first.WindowHits {
			t.Errorf("two runs counted %d/%d then %d/%d tile/window hits",
				first.TileHits, first.WindowHits, st.TileHits, st.WindowHits)
		}
	}
}

// waitProbe is a context that reports the first call of its Done
// method, which Cache.do makes only once it waits on a key in flight.
type waitProbe struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (p *waitProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.waiting) })
	return p.Context.Done()
}

// A waiter whose leader fails computes the unit itself, and the cache
// keeps the waiter's result, never anything of the failed attempt; a
// waiter whose own context ends stops waiting.
func TestCacheWaiterComputesWhenLeaderFails(t *testing.T) {
	c := NewCache(0)
	key := sha256.Sum256([]byte("unit"))
	ctx := context.Background()
	inLeader, release := make(chan struct{}), make(chan struct{})
	failed := errors.New("leader failed")
	leaderErr := make(chan error)
	go func() {
		_, _, err := c.do(ctx, key, func() (*TileResult, error) {
			close(inLeader)
			<-release
			return &TileResult{}, failed
		})
		leaderErr <- err
	}()
	<-inLeader

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := c.do(canceled, key, func() (*TileResult, error) {
		t.Error("a canceled waiter computed the unit")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter: err = %v, want context.Canceled", err)
	}

	type answer struct {
		out      *TileResult
		hit      bool
		err      error
		computed bool
	}
	waiter := make(chan answer)
	mine := &TileResult{Dens: [][]float64{{0.5}}}
	probe := &waitProbe{Context: ctx, waiting: make(chan struct{})}
	go func() {
		var a answer
		a.out, a.hit, a.err = c.do(probe, key, func() (*TileResult, error) {
			a.computed = true
			return mine, nil
		})
		waiter <- a
	}()
	<-probe.waiting
	close(release)
	if err := <-leaderErr; !errors.Is(err, failed) {
		t.Fatalf("leader: err = %v, want %v", err, failed)
	}
	a := <-waiter
	if a.err != nil || a.out != mine || a.hit || !a.computed {
		t.Fatalf("waiter after a failed leader: out %p (want %p), hit %v, computed %v, err %v",
			a.out, mine, a.hit, a.computed, a.err)
	}
	if out, hit, err := c.do(ctx, key, func() (*TileResult, error) {
		t.Error("a stored key was computed again")
		return nil, nil
	}); err != nil || !hit || out != mine {
		t.Errorf("after the waiter: out %p (want %p), hit %v, err %v", out, mine, hit, err)
	}
}

func diffResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Violations, b.Violations) ||
		!reflect.DeepEqual(a.ByRule, b.ByRule) ||
		a.Dropped != b.Dropped ||
		!reflect.DeepEqual(a.Hotspots, b.Hotspots) ||
		!reflect.DeepEqual(a.Density, b.Density) {
		t.Fatalf("%s: results differ", label)
	}
}
