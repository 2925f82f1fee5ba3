// Package peering shards the content-addressed run cache across a fleet of
// stellar-serve nodes. Each RunSpec key has exactly one owner under
// rendezvous (highest-random-weight) hashing; non-owner nodes forward the
// run to the owner over a compact internal HTTP endpoint instead of
// simulating locally, so the fleet presents one logical cache: a duplicate
// request anywhere triggers exactly one simulation (owner-side singleflight
// in runcache plus forwarder-side coalescing here), and the owner's LRU
// serves every repeat. When the owner is unreachable the forwarder degrades
// to local execution — availability over placement — and counts the miss in
// ForwardErrs. The on-disk <key>.json recording format is unchanged, so a
// shared -cache-dir remains the fleet-wide cold tier any node can
// warm-start any key from.
package peering

import (
	"hash/fnv"
	"io"
	"sort"
)

// Ring is a rendezvous hash over a fixed member set: every key is owned by
// the member with the highest score(member, key). Unlike mod-N hashing,
// removing one member remaps only the keys that member owned and adding one
// steals only the keys it now wins — the stability property the ring tests
// pin down. Members are deduplicated and sorted, so two nodes configured
// with the same set in any order agree on every owner.
type Ring struct {
	members []string
}

// NewRing builds a ring over the given members; empty strings and
// duplicates are dropped.
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	return &Ring{members: uniq}
}

// Members returns the member set in sorted order (a copy).
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key, or "" for an empty ring. Ties go to
// the lexicographically smallest member, so ownership is total and
// deterministic across the fleet.
func (r *Ring) Owner(key string) string {
	best, bestScore := "", uint64(0)
	for _, m := range r.members {
		if s := score(m, key); best == "" || s > bestScore {
			best, bestScore = m, s
		}
	}
	return best
}

// score is FNV-1a 64 over member\x00key. The separator keeps
// ("ab","c") and ("a","bc") distinct; FNV is stable across processes and
// architectures, which is what lets every node compute ownership locally.
func score(member, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, member)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return h.Sum64()
}
