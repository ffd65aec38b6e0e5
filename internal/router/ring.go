package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring with virtual nodes. Each backend
// owns Vnodes points on a 64-bit circle; a key routes to the owner of
// the first point at or after its hash. Two properties carry
// affinity routing:
//
//   - Stability: adding or removing one node only moves the keys in
//     the arcs that node's points bound — roughly 1/N of the space —
//     so the per-node result caches stay warm through membership
//     churn instead of being reshuffled wholesale.
//   - Ordered failover: walking the circle past the primary yields a
//     deterministic replica order per key, so when the primary is
//     down every router instance retries the *same* secondary and
//     the key's cache residency stays concentrated.
type ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	names  []string    // distinct backend names, build order
}

type ringPoint struct {
	hash uint64
	name string
}

// newRing builds a ring over the named backends with the given
// virtual-node count per backend (values below 1 mean 1).
func newRing(names []string, vnodes int) *ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &ring{vnodes: vnodes, names: append([]string(nil), names...)}
	for _, n := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", n, i)),
				name: n,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].name < r.points[b].name
	})
	return r
}

// seq returns up to max distinct backends in ring order starting at
// the key's primary: the preference order affinity failover walks.
func (r *ring) seq(key string, max int) []string {
	if len(r.points) == 0 || max < 1 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, max)
	var out []string
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	return h.Sum64()
}
