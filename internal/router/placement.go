package router

import (
	"cmp"
	"hash/fnv"
	"slices"
	"strings"
)

// preference returns the backends in key's preference order, by
// rendezvous (highest-random-weight) hashing: backend b's score for the
// key is score(hash64(key), b.hash), the order is descending score, and
// ties go to the lower name. Three properties carry affinity routing:
//
//   - Agreement: the order depends on the key and the backend names
//     alone, so every router instance sends a key to the same node, a
//     node restarted on the same slot keeps its keys, and when the head
//     is down every instance retries the *same* runner-up, keeping the
//     key's cache residency concentrated.
//   - Stability: removing a node moves only the keys it headed, and
//     adding one moves keys only onto it, so the per-node result caches
//     stay warm through membership churn instead of being reshuffled.
//   - Balance: a key's head is the largest of independently mixed
//     scores, so each of N nodes heads 1/N of the keys up to sampling
//     noise, with nothing to tune.
func preference(key string, backends []*Backend) []*Backend {
	kh := hash64(key)
	out := slices.Clone(backends)
	slices.SortFunc(out, func(a, b *Backend) int {
		if c := cmp.Compare(score(kh, b.hash), score(kh, a.hash)); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// score is the splitmix64 finalizer of the key and name hashes. The
// mixing is what balances: FNV-1a barely moves on a trailing byte, so
// raw hashes of key+name for "n0", "n1", "n2" rank alike and split
// three nodes 25/25/50.
func score(keyHash, nameHash uint64) uint64 {
	z := keyHash ^ nameHash
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	return h.Sum64()
}
