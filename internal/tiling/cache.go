package tiling

import (
	"crypto/sha256"

	"repro/internal/lru"
)

// Cache is a bounded LRU mapping content addresses to origin-relative
// tile/window results. Payloads are immutable once stored (replay
// translates into fresh slices), so one cache is safe to share across
// the tile fan-out and across successive evaluations — which is the
// point: a second run over a revised floorplan reuses every unchanged
// slot.
type Cache struct {
	lru *lru.Cache[[sha256.Size]byte, *TileResult]
}

// NewCache returns a cache bounded to maxEntries (default 8192 when
// <= 0). Entries are whole tile or scan-window results; a full chip
// evaluation touches one entry per non-empty tile plus one per
// non-empty scan window.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 8192
	}
	return &Cache{lru: lru.New[[sha256.Size]byte, *TileResult](maxEntries)}
}
