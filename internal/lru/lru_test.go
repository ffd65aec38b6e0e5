package lru

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// step is one operation of a scripted scenario over small integer key
// ids: a put of value v, or a get expecting hit (and v when hit).
type step struct {
	put  bool
	k, v int
	hit  bool
}

func put(k, v int) step           { return step{put: true, k: k, v: v} }
func hit(k, v int) step           { return step{k: k, v: v, hit: true} }
func miss(k int) step             { return step{k: k} }
func sha(i int) [sha256.Size]byte { return sha256.Sum256([]byte{byte(i)}) }

var scenarios = []struct {
	name    string
	cap     int
	steps   []step
	wantLen int
}{
	{"evicts the least recently used past capacity", 2,
		[]step{put(1, 10), put(2, 20), put(3, 30), miss(1), hit(2, 20), hit(3, 30)}, 2},
	{"get refreshes recency", 2,
		[]step{put(1, 10), put(2, 20), hit(1, 10), put(3, 30), miss(2), hit(1, 10), hit(3, 30)}, 2},
	{"overwrite updates the value and refreshes recency", 2,
		[]step{put(1, 10), put(2, 20), put(1, 11), put(3, 30), miss(2), hit(1, 11)}, 2},
	{"capacity below one holds one entry", 0,
		[]step{put(1, 10), put(2, 20), miss(1), hit(2, 20)}, 1},
}

// runScenarios drives every scenario through a cache keyed by K, so the
// two key types in production use — dfmd's "sha256:<hex>" strings and
// the tiling engine's raw digests — exercise the same table.
func runScenarios[K comparable](t *testing.T, key func(int) K) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			c := New[K, int](sc.cap)
			for i, s := range sc.steps {
				if s.put {
					c.Put(key(s.k), s.v)
					continue
				}
				got, ok := c.Get(key(s.k))
				if ok != s.hit || (ok && got != s.v) {
					t.Fatalf("step %d: get(%d) = %d, %v; want %d, %v", i, s.k, got, ok, s.v, s.hit)
				}
			}
			if c.Len() != sc.wantLen {
				t.Fatalf("Len = %d, want %d", c.Len(), sc.wantLen)
			}
		})
	}
}

func TestCacheStringKeys(t *testing.T) {
	runScenarios(t, func(i int) string { return fmt.Sprintf("sha256:%02x", i) })
}

func TestCacheDigestKeys(t *testing.T) {
	runScenarios(t, sha)
}

func TestCacheConcurrent(t *testing.T) {
	c := New[string, string](16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w+i)%32)
				c.Put(k, k)
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("key %s returned %s", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
}
