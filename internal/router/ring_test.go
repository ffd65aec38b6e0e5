package router

import (
	"fmt"
	"testing"
)

// owner returns the backend the key hashes to, or "" on an empty
// ring.
func (r *ring) owner(key string) string {
	seq := r.seq(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real content addresses: opaque and high-entropy.
		keys[i] = fmt.Sprintf("sha256:%064x", i*2654435761)
	}
	return keys
}

// TestRingStabilityUnderRemoval pins the consistent-hashing contract:
// removing one node moves only that node's keys — every key owned by
// a surviving node keeps its owner, so the surviving caches stay
// warm.
func TestRingStabilityUnderRemoval(t *testing.T) {
	names := []string{"n0", "n1", "n2"}
	r3 := newRing(names, 128)
	keys := ringKeys(10000)

	owner3 := make(map[string]string, len(keys))
	for _, k := range keys {
		owner3[k] = r3.owner(k)
		if owner3[k] == "" {
			t.Fatalf("key %q unowned on a populated ring", k)
		}
	}

	r2 := newRing([]string{"n0", "n2"}, 128) // n1 removed
	moved := 0
	for _, k := range keys {
		o2 := r2.owner(k)
		if owner3[k] == "n1" {
			if o2 == "n1" {
				t.Fatalf("key %q still owned by removed node", k)
			}
			moved++
			continue
		}
		if o2 != owner3[k] {
			t.Fatalf("key %q moved %s→%s though its owner survived", k, owner3[k], o2)
		}
	}
	// n1 owned roughly a third of the space; all of it (and only it)
	// moved.
	if moved < len(keys)/6 || moved > len(keys)/2 {
		t.Fatalf("%d/%d keys moved on removal, want ≈1/3", moved, len(keys))
	}
}

// TestRingBoundedMovementOnAdd: growing 3→4 nodes relocates about a
// quarter of the keyspace, not a reshuffle.
func TestRingBoundedMovementOnAdd(t *testing.T) {
	r3 := newRing([]string{"n0", "n1", "n2"}, 128)
	r4 := newRing([]string{"n0", "n1", "n2", "n3"}, 128)
	keys := ringKeys(10000)

	moved := 0
	for _, k := range keys {
		o3, o4 := r3.owner(k), r4.owner(k)
		if o3 != o4 {
			if o4 != "n3" {
				t.Fatalf("key %q moved %s→%s, but only moves onto the new node are legal", k, o3, o4)
			}
			moved++
		}
	}
	// Ideal is 1/4; allow generous slack for vnode placement variance
	// but fail on anything resembling a rehash-everything.
	if moved < len(keys)/8 || moved > len(keys)/2 {
		t.Fatalf("%d/%d keys moved on add, want ≈1/4", moved, len(keys))
	}
}

// TestRingSeqDeterministicFailoverOrder: the replica walk is stable
// per key, starts at the owner, and covers every distinct node.
func TestRingSeqDeterministicFailoverOrder(t *testing.T) {
	r := newRing([]string{"n0", "n1", "n2"}, 64)
	for _, k := range ringKeys(100) {
		s1 := r.seq(k, 3)
		s2 := r.seq(k, 3)
		if len(s1) != 3 {
			t.Fatalf("seq(%q) = %v, want all 3 distinct nodes", k, s1)
		}
		if s1[0] != r.owner(k) {
			t.Fatalf("seq(%q)[0] = %s, owner = %s", k, s1[0], r.owner(k))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("seq(%q) unstable: %v vs %v", k, s1, s2)
			}
		}
		seen := map[string]bool{}
		for _, n := range s1 {
			if seen[n] {
				t.Fatalf("seq(%q) repeats %s: %v", k, n, s1)
			}
			seen[n] = true
		}
	}
}

// TestRingBalance: virtual nodes keep per-node load within a sane
// band of the fair share.
func TestRingBalance(t *testing.T) {
	r := newRing([]string{"n0", "n1", "n2"}, 128)
	counts := map[string]int{}
	keys := ringKeys(30000)
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	fair := len(keys) / 3
	for n, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Fatalf("node %s owns %d of %d keys (fair %d): imbalance beyond 2×", n, c, len(keys), fair)
		}
	}
}

// TestRingEmptyAndSingle: degenerate shapes must not panic.
func TestRingEmptyAndSingle(t *testing.T) {
	if o := newRing(nil, 16).owner("k"); o != "" {
		t.Fatalf("empty ring owner = %q, want empty", o)
	}
	r := newRing([]string{"solo"}, 16)
	if o := r.owner("anything"); o != "solo" {
		t.Fatalf("single-node ring owner = %q", o)
	}
	if s := r.seq("anything", 5); len(s) != 1 || s[0] != "solo" {
		t.Fatalf("single-node seq = %v", s)
	}
}
