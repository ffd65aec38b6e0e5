package router

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"testing"
	"time"
)

// fleet returns backends with the given names, hashed as New hashes
// them; placement reads nothing else of a backend.
func fleet(names ...string) []*Backend {
	out := make([]*Backend, len(names))
	for i, n := range names {
		out[i] = &Backend{Name: n, hash: hash64(n)}
	}
	return out
}

func nameList(bs []*Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// head is the backend the key is placed on, or "" for no backends.
func head(key string, bs []*Backend) string {
	if order := preference(key, bs); len(order) > 0 {
		return order[0].Name
	}
	return ""
}

// claims returns n keys shaped like the content addresses clients
// claim: "sha256:" and 64 hex digits of a real digest.
func claims(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		sum := sha256.Sum256(b[:])
		keys[i] = "sha256:" + hex.EncodeToString(sum[:])
	}
	return keys
}

// TestPlacementStabilityUnderRemoval: removing one node moves only that
// node's keys — every key placed on a surviving node keeps its node, so
// the surviving caches stay warm.
func TestPlacementStabilityUnderRemoval(t *testing.T) {
	f3 := fleet("n0", "n1", "n2")
	f2 := fleet("n0", "n2") // n1 removed
	keys := claims(10000)
	moved := 0
	for _, k := range keys {
		o3, o2 := head(k, f3), head(k, f2)
		if o3 == "n1" {
			if o2 == "n1" {
				t.Fatalf("key %q still placed on the removed node", k)
			}
			moved++
			continue
		}
		if o2 != o3 {
			t.Fatalf("key %q moved %s→%s though its node survived", k, o3, o2)
		}
	}
	// n1 held about a third of the keys; all of them (and only them)
	// moved.
	if moved < len(keys)/6 || moved > len(keys)/2 {
		t.Fatalf("%d/%d keys moved on removal, want ≈1/3", moved, len(keys))
	}
}

// TestPlacementBoundedMovementOnAdd: growing 3→4 nodes moves about a
// quarter of the keys, all of them onto the new node — not a reshuffle.
func TestPlacementBoundedMovementOnAdd(t *testing.T) {
	f3 := fleet("n0", "n1", "n2")
	f4 := fleet("n0", "n1", "n2", "n3")
	keys := claims(10000)
	moved := 0
	for _, k := range keys {
		o3, o4 := head(k, f3), head(k, f4)
		if o3 != o4 {
			if o4 != "n3" {
				t.Fatalf("key %q moved %s→%s, but only moves onto the new node are legal", k, o3, o4)
			}
			moved++
		}
	}
	if moved < len(keys)/8 || moved > len(keys)/2 {
		t.Fatalf("%d/%d keys moved on add, want ≈1/4", moved, len(keys))
	}
}

// TestPlacementDeterministicFailoverOrder: the preference order is
// stable per key, covers every node once, and depends on the names
// alone — not on the order the backends are listed in, nor on their
// URLs — so two router instances, or one whose node restarted on the
// same slot at a new address, agree on it.
func TestPlacementDeterministicFailoverOrder(t *testing.T) {
	f := fleet("n0", "n1", "n2")
	rev := slices.Clone(f)
	slices.Reverse(rev)
	a, err := New(Config{Backends: []string{deadURL(t), deadURL(t), deadURL(t)},
		CheckInterval: time.Hour, FailAfter: 1 << 30, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(context.Background())
	b, err := New(Config{Backends: []string{deadURL(t), deadURL(t), deadURL(t)},
		CheckInterval: time.Hour, FailAfter: 1 << 30, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown(context.Background())
	for _, k := range claims(100) {
		s := nameList(preference(k, f))
		if len(s) != 3 {
			t.Fatalf("preference(%q) = %v, want all 3 nodes", k, s)
		}
		for _, other := range [][]string{
			nameList(preference(k, f)), nameList(preference(k, rev)),
			nameList(preference(k, a.backends)), nameList(preference(k, b.backends)),
		} {
			if !slices.Equal(s, other) {
				t.Fatalf("preference(%q) unstable: %v vs %v", k, s, other)
			}
		}
		if got := sorted(s); !slices.Equal(got, []string{"n0", "n1", "n2"}) {
			t.Fatalf("preference(%q) = %v, not a permutation of the fleet", k, s)
		}
	}
}

// TestPlacementBalance routes 30 000 content addresses through pick on
// fleets of 2, 3 and 4 and holds every backend within ±5 % of its fair
// share. (The 128-vnode FNV-1a ring this replaced gave one of two nodes
// 65 % and one of three 57 %.)
func TestPlacementBalance(t *testing.T) {
	keys := claims(30000)
	for n := 2; n <= 4; n++ {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = deadURL(t)
		}
		r, err := New(Config{Backends: urls, CheckInterval: time.Hour, FailAfter: 1 << 30, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, k := range keys {
			b, _ := r.pick(k, nil)
			counts[b.Name]++
		}
		r.Shutdown(context.Background())
		fair := float64(len(keys)) / float64(n)
		for _, b := range r.backends {
			if c := float64(counts[b.Name]); c < 0.95*fair || c > 1.05*fair {
				t.Errorf("%d backends: %s holds %.0f of %d keys (%.1f %%), fair share %.1f %% ±5 %%",
					n, b.Name, c, len(keys), 100*c/float64(len(keys)), 100/float64(n))
			}
		}
	}
}

// TestPlacementEmptyAndSingle: degenerate fleets must not panic.
func TestPlacementEmptyAndSingle(t *testing.T) {
	if o := preference("k", nil); len(o) != 0 {
		t.Fatalf("empty fleet order = %v, want empty", nameList(o))
	}
	if s := nameList(preference("anything", fleet("solo"))); !slices.Equal(s, []string{"solo"}) {
		t.Fatalf("single-node order = %v", s)
	}
}

// FuzzPlacement holds rendezvous placement to its contract on 1–8
// distinct backend names (the comma-separated fields of list, after
// the first 8 distinct; a 9th, if present, is the node added): the
// order is a permutation of the names, non-increasing in score with
// ties by name, so its head is the argmax; dropping any name but the
// head keeps the head; adding a name changes the head only to the new
// name.
func FuzzPlacement(f *testing.F) {
	f.Add("sha256:"+strings.Repeat("0", 64), "n0,n1,n2,n3")
	f.Add("k", "solo")
	f.Add("", "n0,n1,n2,n3,n4,n5,n6,n7,n8")
	f.Add("sha256:"+strings.Repeat("af", 32), ",a,a,b,,c")
	f.Fuzz(func(t *testing.T, key, list string) {
		var names []string
		for _, n := range strings.Split(list, ",") {
			if !slices.Contains(names, n) && len(names) < 9 {
				names = append(names, n)
			}
		}
		var extra []string
		if len(names) == 9 {
			names, extra = names[:8], names[8:]
		}
		bs := fleet(names...)
		order := preference(key, bs)
		got := nameList(order)
		if !slices.Equal(sorted(got), sorted(names)) {
			t.Fatalf("order %q is not a permutation of %q", got, names)
		}
		kh := hash64(key)
		for i := 1; i < len(order); i++ {
			p, q := score(kh, order[i-1].hash), score(kh, order[i].hash)
			if p < q || (p == q && order[i-1].Name > order[i].Name) {
				t.Fatalf("order %q: %q (score %#x) before %q (score %#x)", got, order[i-1].Name, p, order[i].Name, q)
			}
		}
		h := got[0]
		for i, n := range names {
			if n == h {
				continue
			}
			rest := append(slices.Clone(names[:i]), names[i+1:]...)
			if g := head(key, fleet(rest...)); g != h {
				t.Fatalf("dropping %q moved the head %q→%q", n, h, g)
			}
		}
		if len(extra) == 1 {
			if g := head(key, fleet(append(slices.Clone(names), extra[0])...)); g != h && g != extra[0] {
				t.Fatalf("adding %q moved the head %q→%q", extra[0], h, g)
			}
		}
	})
}
