// Package lru is the one bounded least-recently-used map of the stack.
// The tile/window replay cache (internal/tiling) and dfmd's job result
// cache (internal/server) are both content-addressed stores that differ
// only in key and value type, so they share this implementation instead
// of each carrying its own mutex + container/list copy.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, evicting the least recently used entry
// once more than its capacity are held. Get and Put both count as use.
// Safe for concurrent use. Values are returned as stored: callers that
// share a cache across goroutines store immutable values.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	m   map[K]*list.Element
	ll  *list.List // front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most capacity entries; a capacity
// below 1 is raised to 1 (callers apply their own defaults first).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, m: make(map[K]*list.Element), ll: list.New()}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k as the most recently used entry, replacing any
// previous value, and evicts from the cold end past capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*entry[K, V]).key)
	}
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
