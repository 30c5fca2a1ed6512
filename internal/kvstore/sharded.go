package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vidrec/internal/metrics"
)

// Coordinator owns the authoritative shard map for a cluster of shard
// groups and runs the online rebalance protocol. The published map is
// immutable; moving a slot builds a Version+1 revision and installs it on
// every group inside one critical section, so there is exactly one map
// transition in flight at any moment and a client refresh — which takes
// the same mutex — always returns a fully installed map.
type Coordinator struct {
	mu     sync.Mutex
	m      *ShardMap     // guarded by mu; immutable once published
	groups []*ShardGroup // fixed at construction, index-aligned with m.Groups

	rebalances metrics.Counter // completed slot moves
	movedKeys  metrics.Counter // keys moved across all rebalances
}

// NewCoordinator builds the version-1 rendezvous map over the groups and
// installs each group's initial ownership.
func NewCoordinator(groups ...*ShardGroup) (*Coordinator, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("kvstore: coordinator needs at least one shard group")
	}
	names := make([]string, len(groups))
	for i, g := range groups {
		if g == nil {
			return nil, fmt.Errorf("kvstore: coordinator group %d is nil", i)
		}
		names[i] = g.Name()
	}
	m, err := NewShardMap(names)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{m: m, groups: append([]*ShardGroup(nil), groups...)}
	c.installLocked(m)
	return c, nil
}

// installLocked pushes a map revision's ownership sets to every group.
func (c *Coordinator) installLocked(m *ShardMap) {
	for i, g := range c.groups {
		var owned [NumShardSlots]bool
		for s, o := range m.Slots {
			if int(o) == i {
				owned[s] = true
			}
		}
		g.install(&owned)
	}
}

// View returns the current map and the group handles. Because Rebalance
// holds the same mutex end to end, a View issued mid-rebalance blocks until
// the handoff completes — the property that turns a client's redirect
// retry into a parked wait instead of a spin.
func (c *Coordinator) View() (*ShardMap, []*ShardGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m, c.groups
}

// Rebalance moves one slot to the named group with the freeze→transfer→flip
// handoff: writes to the slot freeze (reads keep serving from the source),
// the slot's keys and the dedup table are copied to the destination, then
// the Version+1 map installs on every group and the source drops the moved
// data. Returns the number of keys moved.
func (c *Coordinator) Rebalance(ctx context.Context, slot int, toGroup string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot < 0 || slot >= NumShardSlots {
		return 0, fmt.Errorf("kvstore: rebalance slot %d out of range", slot)
	}
	dst := -1
	for i, name := range c.m.Groups {
		if name == toGroup {
			dst = i
			break
		}
	}
	if dst < 0 {
		return 0, fmt.Errorf("kvstore: rebalance target group %q unknown", toGroup)
	}
	src := c.m.GroupFor(slot)
	if src == dst {
		return 0, nil
	}
	srcG, dstG := c.groups[src], c.groups[dst]
	next := c.m.Clone()
	next.Version++
	next.Slots[slot] = uint8(dst)

	// Freeze: writes to the slot now return ErrSlotFrozen and the writer's
	// refresh parks on c.mu; reads keep answering from the source.
	srcG.freeze(slot)
	payload, err := srcG.buildTransfer(ctx, slot)
	if err != nil {
		srcG.unfreeze(slot)
		return 0, err
	}
	if err := dstG.applyTransfer(ctx, payload); err != nil {
		srcG.unfreeze(slot)
		return 0, err
	}
	// Flip: every group learns the new ownership atomically with respect to
	// clients, because refreshes serialize behind this critical section.
	c.installLocked(next)
	c.m = next
	moved, err := srcG.dropSlot(ctx, slot)
	if err != nil {
		return moved, err
	}
	c.rebalances.Inc()
	c.movedKeys.Add(uint64(moved))
	return moved, nil
}

// CoordinatorStats is a point-in-time snapshot of the rebalance counters.
type CoordinatorStats struct {
	Version    uint64 // current shard-map version
	Groups     int
	Rebalances uint64 // completed slot moves
	MovedKeys  uint64 // keys moved across all rebalances
}

// Stats returns the coordinator's counters.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CoordinatorStats{
		Version:    c.m.Version,
		Groups:     len(c.groups),
		Rebalances: c.rebalances.Load(),
		MovedKeys:  c.movedKeys.Load(),
	}
}

// maxShardRetries bounds the router's redirect-and-refresh loop. Each
// retry follows a blocking refresh, so the bound is never reached in a
// healthy cluster; it exists to turn a routing bug into an error instead
// of a livelock.
const maxShardRetries = 64

// Sharded is the client-side router: a Store whose key space is
// partitioned across a Coordinator's shard groups. Every write is stamped
// with the router's client id and a fresh sequence number, the identity
// the groups' dedup tables key on. A routing miss (ErrWrongServer from a
// group that no longer owns the slot, or ErrSlotFrozen from a slot
// mid-handoff) refreshes the map from the coordinator — blocking out any
// in-flight rebalance — and retries, so stale-map clients recover without
// surfacing errors.
type Sharded struct {
	coord *Coordinator
	cid   uint64
	seq   atomic.Uint64

	mu     sync.RWMutex
	m      *ShardMap     // guarded by mu
	groups []*ShardGroup // guarded by mu; aligned with m.Groups

	redirects    metrics.Counter // retries after ErrWrongServer
	frozenWaits  metrics.Counter // retries after ErrSlotFrozen
	mapRefreshes metrics.Counter // coordinator refreshes
}

// NewSharded returns a router for the coordinator's cluster. cid is the
// client identity for write dedup and must be non-zero; distinct writers
// must use distinct cids.
func NewSharded(coord *Coordinator, cid uint64) (*Sharded, error) {
	if coord == nil {
		return nil, fmt.Errorf("kvstore: sharded router needs a coordinator")
	}
	if cid == 0 {
		return nil, fmt.Errorf("kvstore: sharded router client id must be non-zero")
	}
	m, groups := coord.View()
	return &Sharded{coord: coord, cid: cid, m: m, groups: groups}, nil
}

// NewReplicated builds a one-group tier over replicas: a primary/backup
// ShardGroup owning every slot, with replicas[0] as the initial primary,
// fronted by its router. It is the sharded tier with one group and no other
// replication scheme; the end-to-end benchmark's per-layer probe
// (benchmark/probes.go) links it by this name.
func NewReplicated(replicas ...Store) (*Sharded, error) {
	g, err := NewShardGroup("g0", replicas...)
	if err != nil {
		return nil, err
	}
	coord, err := NewCoordinator(g)
	if err != nil {
		return nil, err
	}
	return NewSharded(coord, 1)
}

// MapVersion reports the shard-map version the router currently routes on.
func (s *Sharded) MapVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Version
}

// ShardedStats is a point-in-time snapshot of the router's counters.
type ShardedStats struct {
	Redirects    uint64 // retries after ErrWrongServer
	FrozenWaits  uint64 // retries after ErrSlotFrozen
	MapRefreshes uint64 // coordinator refreshes
}

// Stats returns the router's counters.
func (s *Sharded) Stats() ShardedStats {
	return ShardedStats{
		Redirects:    s.redirects.Load(),
		FrozenWaits:  s.frozenWaits.Load(),
		MapRefreshes: s.mapRefreshes.Load(),
	}
}

// refresh pulls the coordinator's current map. Taking the coordinator
// mutex means a refresh issued while a rebalance is in flight parks until
// the handoff completes, which is why the retry loops never spin.
func (s *Sharded) refresh() {
	m, groups := s.coord.View()
	s.mapRefreshes.Inc()
	s.mu.Lock()
	if m.Version > s.m.Version {
		s.m, s.groups = m, groups
	}
	s.mu.Unlock()
}

// groupFor resolves a slot's owner under the router's current map.
func (s *Sharded) groupFor(slot int) *ShardGroup {
	s.mu.RLock()
	g := s.groups[s.m.GroupFor(slot)]
	s.mu.RUnlock()
	return g
}

// readSlot runs a read-only op against the slot's owner, refreshing and
// retrying on a stale route.
func (s *Sharded) readSlot(ctx context.Context, slot int, op func(Store) error) error {
	for attempt := 0; ; attempt++ {
		err := s.groupFor(slot).read(ctx, slot, op)
		if err == nil || !errors.Is(err, ErrWrongServer) {
			return err
		}
		if attempt >= maxShardRetries {
			return fmt.Errorf("kvstore: sharded read of slot %d unroutable after %d redirects: %w", slot, attempt, err)
		}
		s.redirects.Inc()
		s.refresh()
	}
}

// write stamps and routes one mutation, refreshing and retrying on a stale
// route or a frozen slot.
func (s *Sharded) write(ctx context.Context, key string, w groupWrite) (bool, error) {
	slot := SlotForKey(key)
	seq := s.seq.Add(1)
	for attempt := 0; ; attempt++ {
		existed, err := s.groupFor(slot).apply(ctx, slot, s.cid, seq, w)
		switch {
		case err == nil:
			return existed, nil
		case errors.Is(err, ErrWrongServer):
			s.redirects.Inc()
		case errors.Is(err, ErrSlotFrozen):
			s.frozenWaits.Inc()
		default:
			return false, err
		}
		if attempt >= maxShardRetries {
			return false, fmt.Errorf("kvstore: sharded write to %q unroutable after %d redirects: %w", key, attempt, err)
		}
		s.refresh()
	}
}

// Get implements Store.
func (s *Sharded) Get(ctx context.Context, key string) ([]byte, bool, error) {
	var v []byte
	var ok bool
	err := s.readSlot(ctx, SlotForKey(key), func(st Store) error {
		var err error
		v, ok, err = st.Get(ctx, key)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return v, ok, nil
}

// Set implements Store.
func (s *Sharded) Set(ctx context.Context, key string, val []byte) error {
	_, err := s.write(ctx, key, groupWrite{kind: writeSet, key: key, val: val})
	return err
}

// Delete implements Store.
func (s *Sharded) Delete(ctx context.Context, key string) (bool, error) {
	return s.write(ctx, key, groupWrite{kind: writeDelete, key: key})
}

// Update implements Store. The callback runs exactly once, on the owning
// group's primary; backups receive the captured result.
func (s *Sharded) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	_, err := s.write(ctx, key, groupWrite{kind: writeUpdate, key: key, fn: fn})
	return err
}

// MGet implements Store. The batch partitions by owner group; each group
// answers its sub-batch from one replica, and any stale route restarts the
// whole batch against the refreshed map so the scatter never splits across
// two map versions.
func (s *Sharded) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for attempt := 0; attempt <= maxShardRetries; attempt++ {
		s.mu.RLock()
		m, groups := s.m, s.groups
		s.mu.RUnlock()
		positions := make([][]int, len(groups))
		slots := make([][]int, len(groups))
		for i, k := range keys {
			slot := SlotForKey(k)
			gi := m.GroupFor(slot)
			positions[gi] = append(positions[gi], i)
			slots[gi] = append(slots[gi], slot)
		}
		stale := false
		for gi := range groups {
			if len(positions[gi]) == 0 {
				continue
			}
			sub := make([]string, len(positions[gi]))
			for j, i := range positions[gi] {
				sub[j] = keys[i]
			}
			var vals [][]byte
			err := groups[gi].readMulti(ctx, slots[gi], func(st Store) error {
				var err error
				vals, err = st.MGet(ctx, sub)
				return err
			})
			if errors.Is(err, ErrWrongServer) {
				s.redirects.Inc()
				s.refresh()
				stale = true
				break
			}
			if err != nil {
				return nil, err
			}
			for j, i := range positions[gi] {
				out[i] = vals[j]
			}
		}
		if !stale {
			return out, nil
		}
	}
	return nil, fmt.Errorf("kvstore: sharded mget unroutable after %d redirects", maxShardRetries)
}

// Len implements Store, summing every group's owned-slot key count. Slots
// mid-handoff count exactly once (see lenOwned).
func (s *Sharded) Len(ctx context.Context) (int, error) {
	s.mu.RLock()
	groups := s.groups
	s.mu.RUnlock()
	n := 0
	for _, g := range groups {
		c, err := g.lenOwned(ctx)
		if err != nil {
			return 0, err
		}
		n += c
	}
	return n, nil
}
