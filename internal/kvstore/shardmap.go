package kvstore

import "fmt"

// Horizontal sharding: the key space is divided into NumShardSlots fixed
// slots by FNV-1a hash, and a ShardMap assigns every slot to exactly one
// shard group (a primary/backup replica pair, shardgroup.go). Routing on a
// fixed slot table rather than hashing group names directly means ownership
// can move one slot at a time — the unit of the online rebalance protocol
// (sharded.go) — while every key's slot stays eternally stable.
//
// The initial slot→group assignment uses rendezvous (highest-random-weight)
// hashing, so growing a cluster from N to N+1 groups reassigns only the
// slots the new group wins — the consistent-hash stability bound the
// property test pins: at most ⌈slots/(N+1)⌉ slots move.

// NumShardSlots is the fixed number of hash slots keys are partitioned
// into: enough to give a 16-group cluster 16 slots per group to balance
// with, few enough that a map revision is a 256-entry copy.
const NumShardSlots = 256

// SlotForKey returns the shard slot a key routes to. Every key maps to
// exactly one slot, forever: the slot table is fixed and the hash is the
// same inlined FNV-1a the Local store uses (pinned bit-identical to
// hash/fnv by a test).
func SlotForKey(key string) int {
	return int(fnv1a32(key) % NumShardSlots)
}

// ShardMap is the routing table: the cluster's group names and the owner
// group index for each slot. Maps are immutable once published — the
// coordinator installs a new map (Version+1) to move ownership, and a
// client holding an old version discovers it through ErrWrongServer.
type ShardMap struct {
	// Version orders map revisions; rebalances publish Version+1.
	Version uint64
	// Groups are the shard-group names, index-aligned with Slots values.
	Groups []string
	// Slots[s] is the index into Groups of slot s's owner.
	Slots []uint8
}

// NewShardMap builds the version-1 map for the given group names, assigning
// every slot to its rendezvous winner.
func NewShardMap(groups []string) (*ShardMap, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("kvstore: shard map needs at least one group")
	}
	if len(groups) > 256 {
		return nil, fmt.Errorf("kvstore: shard map supports at most 256 groups, got %d", len(groups))
	}
	seen := make(map[string]struct{}, len(groups))
	for _, g := range groups {
		if g == "" {
			return nil, fmt.Errorf("kvstore: shard group name must be non-empty")
		}
		if _, dup := seen[g]; dup {
			return nil, fmt.Errorf("kvstore: duplicate shard group name %q", g)
		}
		seen[g] = struct{}{}
	}
	m := &ShardMap{
		Version: 1,
		Groups:  append([]string(nil), groups...),
		Slots:   make([]uint8, NumShardSlots),
	}
	for s := range m.Slots {
		m.Slots[s] = uint8(rendezvousOwner(s, groups))
	}
	return m, nil
}

// rendezvousOwner returns the index of the group with the highest hash
// weight for the slot. Each (group, slot) pair hashes independently, so
// adding a group only moves the slots the newcomer wins — no other
// assignment changes.
func rendezvousOwner(slot int, groups []string) int {
	best := 0
	bestW := rendezvousWeight(groups[0], slot)
	for i := 1; i < len(groups); i++ {
		if w := rendezvousWeight(groups[i], slot); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// rendezvousWeight is FNV-1a 64 over the group name and the slot index,
// finished with a splitmix64 avalanche. The avalanche matters: raw FNV of a
// one-byte slot suffix only stirs the low bits, leaving the weight ordering
// between groups nearly constant across slots — one group would win the
// whole table.
func rendezvousWeight(group string, slot int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(group); i++ {
		h = (h ^ uint64(group[i])) * 1099511628211
	}
	h = (h ^ uint64(slot)) * 1099511628211
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// GroupFor returns the owner group index for a slot.
func (m *ShardMap) GroupFor(slot int) int { return int(m.Slots[slot]) }

// Clone returns a deep copy, the starting point for publishing a revision.
func (m *ShardMap) Clone() *ShardMap {
	return &ShardMap{
		Version: m.Version,
		Groups:  append([]string(nil), m.Groups...),
		Slots:   append([]uint8(nil), m.Slots...),
	}
}
