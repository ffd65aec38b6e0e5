package tiling

import (
	"context"
	"crypto/sha256"
	"sync"

	"repro/internal/lru"
)

// Cache is a bounded LRU mapping content addresses to origin-relative
// tile/window results. Payloads are immutable once stored (replay
// translates into fresh slices), so one cache is safe to share across
// the tile fan-out and across successive evaluations — which is the
// point: a second run over a revised floorplan reuses every unchanged
// slot. A key is computed once per cache: a caller that asks for a key
// another caller is computing waits for that result instead of
// computing it again.
type Cache struct {
	lru *lru.Cache[[sha256.Size]byte, *TileResult]

	mu       sync.Mutex // guards inflight, and orders it against lru
	inflight map[[sha256.Size]byte]*flight
}

// flight is one key being computed: done closes when the computation
// settles, and out is its result, nil if it failed.
type flight struct {
	done chan struct{}
	out  *TileResult
}

// NewCache returns a cache bounded to maxEntries (default 8192 when
// <= 0). Entries are whole tile or scan-window results; a full chip
// evaluation touches one entry per non-empty tile plus one per
// non-empty scan window.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 8192
	}
	return &Cache{
		lru:      lru.New[[sha256.Size]byte, *TileResult](maxEntries),
		inflight: make(map[[sha256.Size]byte]*flight),
	}
}

// do returns the result stored under key, computing and storing it
// when there is none. The bool reports a hit: compute did not run for
// this call, because the result was stored or another caller computed
// it while this one waited. A waiter whose leader fails starts over, so it
// computes the unit itself unless a third caller already is; nothing
// of a failed attempt is stored.
func (c *Cache) do(ctx context.Context, key [sha256.Size]byte, compute func() (*TileResult, error)) (*TileResult, bool, error) {
	for {
		c.mu.Lock()
		// Under mu a key is stored, in flight, or neither: a leader
		// stores its result before it leaves inflight.
		if out, ok := c.lru.Get(key); ok {
			c.mu.Unlock()
			return out, true, nil
		}
		f, waiting := c.inflight[key]
		if !waiting {
			f = &flight{done: make(chan struct{})}
			c.inflight[key] = f
			c.mu.Unlock()
			out, err := c.lead(key, f, compute)
			return out, false, err
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.out != nil {
			return f.out, true, nil
		}
	}
}

// lead computes key for the callers waiting on f, and settles f however
// compute ends.
func (c *Cache) lead(key [sha256.Size]byte, f *flight, compute func() (*TileResult, error)) (out *TileResult, err error) {
	defer func() {
		c.mu.Lock()
		if err == nil && out != nil {
			c.lru.Put(key, out)
			f.out = out
		}
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
	}()
	return compute()
}
