package kvstore

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"vidrec/internal/metrics"
)

// ErrWrongServer is returned by a shard group asked to serve a slot it does
// not own — the signal a client is routing on a stale shard map. The client
// refreshes its map from the coordinator and retries; the coordinator's
// mutex makes the refresh block out any in-flight rebalance, so one retry
// lands on the new owner.
var ErrWrongServer = fmt.Errorf("kvstore: wrong server for shard slot")

// ErrSlotFrozen is returned for writes to a slot that is mid-handoff. Reads
// are never frozen — the source keeps serving them until the flip — and the
// client's refresh-and-retry loop parks on the coordinator mutex until the
// handoff completes, so callers never observe this error.
var ErrSlotFrozen = fmt.Errorf("kvstore: shard slot frozen for handoff")

// ShardGroup is one partition's replica set: a primary plus backups holding
// identical copies of every key in the group's slots. Writes apply to the
// primary and replicate synchronously to live backups; a primary failure
// promotes the next live replica mid-write, so a single replica loss never
// fails a write or loses applied state. Writes carry no client identity:
// a write reaches apply once per Sharded call, and the only errors the
// router retries on, ErrWrongServer and ErrSlotFrozen, return before
// anything applies, so a retried write never applies twice.
//
// The group tracks its keys per slot in an in-memory index, which is what
// makes slot handoff and replica catch-up possible over the plain Store
// interface: remote backends cannot be enumerated, but the index can.
type ShardGroup struct {
	name string

	mu       sync.RWMutex
	replicas []Store                            // fixed at construction; health in down
	down     []bool                             // guarded by mu
	primary  int                                // guarded by mu
	owned    [NumShardSlots]bool                // guarded by mu
	frozen   [NumShardSlots]bool                // guarded by mu
	keys     [NumShardSlots]map[string]struct{} // guarded by mu; per-slot key index
	missed   []map[string]struct{}              // guarded by mu; deletes each down replica missed

	promotes      metrics.Counter // primary failovers
	syncSkips     metrics.Counter // backup replications skipped or failed
	readFallbacks metrics.Counter // reads answered by a non-primary replica
}

// NewShardGroup builds a group over the given replicas; the first is the
// initial primary. The group owns no slots until a Coordinator installs a
// shard map.
func NewShardGroup(name string, replicas ...Store) (*ShardGroup, error) {
	if name == "" {
		return nil, fmt.Errorf("kvstore: shard group needs a name")
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("kvstore: shard group %s needs at least one replica", name)
	}
	for i, r := range replicas {
		if r == nil {
			return nil, fmt.Errorf("kvstore: shard group %s replica %d is nil", name, i)
		}
	}
	return &ShardGroup{
		name:     name,
		replicas: append([]Store(nil), replicas...),
		down:     make([]bool, len(replicas)),
		missed:   make([]map[string]struct{}, len(replicas)),
	}, nil
}

// Name returns the group's name.
func (g *ShardGroup) Name() string { return g.name }

// Replicas reports the replica count.
func (g *ShardGroup) Replicas() int { return len(g.replicas) }

// PrimaryIndex reports which replica currently serves as primary.
func (g *ShardGroup) PrimaryIndex() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.primary
}

// OwnedSlots reports how many slots the group currently owns.
func (g *ShardGroup) OwnedSlots() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, o := range g.owned {
		if o {
			n++
		}
	}
	return n
}

// GroupStats is a point-in-time snapshot of the group's counters.
type GroupStats struct {
	Promotes      uint64 // primary failovers
	SyncSkips     uint64 // backup replications skipped (replica marked down)
	ReadFallbacks uint64 // reads answered by a non-primary replica
}

// Stats returns the group's counters.
func (g *ShardGroup) Stats() GroupStats {
	return GroupStats{
		Promotes:      g.promotes.Load(),
		SyncSkips:     g.syncSkips.Load(),
		ReadFallbacks: g.readFallbacks.Load(),
	}
}

// Write kinds carried by groupWrite.
const (
	writeSet byte = iota + 1
	writeDelete
	writeUpdate
)

// groupWrite is one mutation routed to a group: a Set, a Delete, or an
// Update whose callback runs exactly once on the primary with the captured
// result replicated to backups.
type groupWrite struct {
	kind byte
	key  string
	val  []byte
	fn   func(cur []byte, exists bool) ([]byte, bool)
}

// apply routes one write to the group. Ownership and freeze are checked
// under the same lock the write applies under, so a slot handoff can never
// interleave with a write to the moving slot. The returned existed bit is
// meaningful for deletes.
func (g *ShardGroup) apply(ctx context.Context, slot int, w groupWrite) (existed bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if !g.owned[slot] {
		return false, ErrWrongServer
	}
	if g.frozen[slot] {
		return false, ErrSlotFrozen
	}

	// Apply on the primary, promoting past dead replicas: a failure marks
	// the primary down and the next live replica — which holds every
	// previously applied write — takes over and applies this one.
	var rep groupWrite
	for {
		if g.down[g.primary] {
			if !g.promoteLocked() {
				return false, fmt.Errorf("kvstore: shard group %s has no live replica", g.name)
			}
			continue
		}
		existed, rep, err = applyTo(ctx, g.replicas[g.primary], w)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return false, err // the caller's deadline died, not the replica
		}
		g.down[g.primary] = true
		if !g.promoteLocked() {
			return false, fmt.Errorf("kvstore: shard group %s lost all replicas: %w", g.name, err)
		}
	}

	// Replicate the captured result to live backups; a backup that fails is
	// marked down (stale until Rejoin) rather than failing the write.
	for i := range g.replicas {
		if i == g.primary || g.down[i] {
			continue
		}
		if rerr := replicateTo(ctx, g.replicas[i], rep); rerr != nil {
			if ctx.Err() != nil {
				return existed, rerr
			}
			g.down[i] = true
			g.syncSkips.Inc()
		}
	}

	// Bookkeeping: the slot's key index and missed deletes for down replicas
	// (Rejoin replays them — a full-state copy alone cannot un-delete).
	if rep.kind == writeDelete {
		if g.keys[slot] != nil {
			delete(g.keys[slot], w.key)
		}
		g.missLocked(w.key)
	} else {
		if g.keys[slot] == nil {
			g.keys[slot] = make(map[string]struct{})
		}
		g.keys[slot][w.key] = struct{}{}
		for i := range g.replicas {
			if g.down[i] && g.missed[i] != nil {
				delete(g.missed[i], w.key)
			}
		}
	}
	return existed, nil
}

// missLocked records a delete every down replica missed, for Rejoin to
// replay. The caller holds mu.
func (g *ShardGroup) missLocked(key string) {
	for i := range g.replicas {
		if g.down[i] {
			if g.missed[i] == nil {
				g.missed[i] = make(map[string]struct{})
			}
			g.missed[i][key] = struct{}{}
		}
	}
}

// applyTo runs one write against a store and returns the replication op for
// backups: an Update's callback runs here, exactly once, and backups get
// the captured Set/Delete result.
func applyTo(ctx context.Context, st Store, w groupWrite) (existed bool, rep groupWrite, err error) {
	switch w.kind {
	case writeSet:
		return false, w, st.Set(ctx, w.key, w.val)
	case writeDelete:
		existed, err = st.Delete(ctx, w.key)
		return existed, w, err
	case writeUpdate:
		var next []byte
		var keep bool
		err = st.Update(ctx, w.key, func(cur []byte, exists bool) ([]byte, bool) {
			next, keep = w.fn(cur, exists)
			return next, keep
		})
		if err != nil {
			return false, rep, err
		}
		if keep {
			return false, groupWrite{kind: writeSet, key: w.key, val: next}, nil
		}
		return false, groupWrite{kind: writeDelete, key: w.key}, nil
	default:
		return false, rep, fmt.Errorf("kvstore: shard group write kind %d unknown", w.kind)
	}
}

// replicateTo applies a captured write result to a backup.
func replicateTo(ctx context.Context, st Store, rep groupWrite) error {
	if rep.kind == writeDelete {
		_, err := st.Delete(ctx, rep.key)
		return err
	}
	return st.Set(ctx, rep.key, rep.val)
}

// read serves one read-only op for a slot. Ownership is checked and the op
// runs under the same read lock, so a concurrent handoff cannot delete the
// slot's keys out from under an admitted read — the never-drop-reads half
// of the rebalance contract. Frozen slots serve reads normally. On a
// primary error the op re-runs against live backups (it must be idempotent
// and overwrite its outputs, which the router's closures are).
func (g *ShardGroup) read(ctx context.Context, slot int, op func(Store) error) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if !g.owned[slot] {
		return ErrWrongServer
	}
	return g.readLocked(op)
}

// readMulti is read over a batch of slots (the router's MGet): every slot
// must be owned, and the whole batch answers from one replica.
func (g *ShardGroup) readMulti(ctx context.Context, slots []int, op func(Store) error) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range slots {
		if !g.owned[s] {
			return ErrWrongServer
		}
	}
	return g.readLocked(op)
}

// readLocked runs op against the primary, falling back to live backups.
// Read-path failures never mark a replica down — that is the write path's
// call, made under the write lock. The caller holds mu.
func (g *ShardGroup) readLocked(op func(Store) error) error {
	var firstErr error
	if p := g.primary; !g.down[p] {
		if err := op(g.replicas[p]); err == nil {
			return nil
		} else {
			firstErr = fmt.Errorf("primary %d: %w", p, err)
		}
	}
	for i := range g.replicas {
		if i == g.primary || g.down[i] {
			continue
		}
		if err := op(g.replicas[i]); err == nil {
			g.readFallbacks.Inc()
			return nil
		} else if firstErr == nil {
			firstErr = fmt.Errorf("backup %d: %w", i, err)
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("kvstore: shard group %s has no live replica", g.name)
	}
	return firstErr
}

// lenOwned counts the group's keys from the slot index — no store round
// trip, and slots mid-handoff are never double counted: the destination
// counts a moving slot only after the flip, the source only before.
func (g *ShardGroup) lenOwned(ctx context.Context) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := 0
	for s := range g.keys {
		if g.owned[s] {
			n += len(g.keys[s])
		}
	}
	return n, nil
}

// promoteLocked moves the primary to the next live replica.
// The caller holds mu.
func (g *ShardGroup) promoteLocked() bool {
	for i := range g.replicas {
		if !g.down[i] {
			if i != g.primary {
				g.primary = i
				g.promotes.Inc()
			}
			return true
		}
	}
	return false
}

// install publishes a shard-map revision's ownership set to the group. All
// freezes clear — a freeze exists only inside the coordinator's rebalance
// critical section, and install is its last step.
func (g *ShardGroup) install(owned *[NumShardSlots]bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.owned = *owned
	g.frozen = [NumShardSlots]bool{}
}

// freeze blocks writes to a slot while its handoff is in flight. Reads
// keep serving.
func (g *ShardGroup) freeze(slot int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.frozen[slot] = true
}

// unfreeze reverts freeze on an aborted handoff.
func (g *ShardGroup) unfreeze(slot int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.frozen[slot] = false
}

// StateSync is a slot handoff's payload, passed from the source group to
// the destination inside the coordinator's critical section: the slot's
// key/value pairs in sorted key order.
type StateSync struct {
	Entries []SyncEntry
}

// SyncEntry is one key/value pair in a StateSync.
type SyncEntry struct {
	Key string
	Val []byte
}

// buildTransfer snapshots one slot's keys and values for the handoff's
// transfer step. The slot must be frozen by the caller, so
// the snapshot cannot race a write.
func (g *ShardGroup) buildTransfer(ctx context.Context, slot int) (*StateSync, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.owned[slot] {
		return nil, fmt.Errorf("kvstore: shard group %s asked to transfer unowned slot %d", g.name, slot)
	}
	entries, err := g.entriesLocked(ctx, []int{slot})
	if err != nil {
		return nil, err
	}
	return &StateSync{Entries: entries}, nil
}

// entriesLocked reads every indexed key of the given slots from the
// primary, in sorted key order so every bulk copy writes in an order fixed
// by state — the order sim replays depend on. The caller holds mu.
func (g *ShardGroup) entriesLocked(ctx context.Context, slots []int) ([]SyncEntry, error) {
	if g.down[g.primary] && !g.promoteLocked() {
		return nil, fmt.Errorf("kvstore: shard group %s has no live replica", g.name)
	}
	p := g.replicas[g.primary]
	var out []SyncEntry
	for _, slot := range slots {
		for _, k := range sortedKeys(g.keys[slot]) {
			v, ok, err := p.Get(ctx, k)
			if err != nil {
				return nil, fmt.Errorf("kvstore: shard group %s transfer read %q: %w", g.name, k, err)
			}
			if !ok {
				return nil, fmt.Errorf("kvstore: shard group %s index lists %q but the primary lacks it", g.name, k)
			}
			out = append(out, SyncEntry{Key: k, Val: v})
		}
	}
	return out, nil
}

// applyTransfer installs a StateSync: every entry writes to every live
// replica and the slot index absorbs the keys. Ownership of the transferred
// slots arrives separately, via install, at the flip.
func (g *ShardGroup) applyTransfer(ctx context.Context, s *StateSync) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range s.Entries {
		slot := SlotForKey(e.Key)
		for i := range g.replicas {
			if g.down[i] {
				continue
			}
			if err := g.replicas[i].Set(ctx, e.Key, e.Val); err != nil {
				if i == g.primary {
					return fmt.Errorf("kvstore: shard group %s transfer write %q: %w", g.name, e.Key, err)
				}
				g.down[i] = true
				g.syncSkips.Inc()
			}
		}
		if g.keys[slot] == nil {
			g.keys[slot] = make(map[string]struct{})
		}
		g.keys[slot][e.Key] = struct{}{}
	}
	return nil
}

// dropSlot deletes a moved slot's data from every live replica after the
// flip, returning how many keys it removed. Down replicas still hold the
// keys, so each is recorded as a missed delete: without that, Rejoin would
// leave the stale copies behind, and once the slot moved back a read that
// fell back to that replica could serve a key deleted in the meantime. The
// group no longer owns the slot, so reads racing the deletion already
// redirect to the new owner.
func (g *ShardGroup) dropSlot(ctx context.Context, slot int) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := sortedKeys(g.keys[slot])
	for _, k := range names {
		for i := range g.replicas {
			if g.down[i] {
				continue
			}
			if _, err := g.replicas[i].Delete(ctx, k); err != nil {
				if i == g.primary {
					return 0, fmt.Errorf("kvstore: shard group %s drop %q: %w", g.name, k, err)
				}
				g.down[i] = true
				g.syncSkips.Inc()
			}
		}
		g.missLocked(k)
	}
	g.keys[slot] = nil
	return len(names), nil
}

// Rejoin brings a down replica back: missed deletes replay first (a state
// copy cannot un-delete), then the primary's entries for every owned slot
// are written to the replica, and it rejoins the live set.
func (g *ShardGroup) Rejoin(ctx context.Context, replica int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if replica < 0 || replica >= len(g.replicas) {
		return fmt.Errorf("kvstore: shard group %s has no replica %d", g.name, replica)
	}
	if !g.down[replica] {
		return nil
	}
	slots := make([]int, 0, NumShardSlots)
	for s := range g.owned {
		if g.owned[s] {
			slots = append(slots, s)
		}
	}
	entries, err := g.entriesLocked(ctx, slots)
	if err != nil {
		return err
	}
	r := g.replicas[replica]
	for _, k := range sortedKeys(g.missed[replica]) {
		if _, err := r.Delete(ctx, k); err != nil {
			return fmt.Errorf("kvstore: shard group %s rejoin delete %q: %w", g.name, k, err)
		}
	}
	for _, e := range entries {
		if err := r.Set(ctx, e.Key, e.Val); err != nil {
			return fmt.Errorf("kvstore: shard group %s rejoin write %q: %w", g.name, e.Key, err)
		}
	}
	g.missed[replica] = nil
	g.down[replica] = false
	return nil
}

// sortedKeys returns a map's keys in sorted order, the determinism
// backbone of every bulk path (transfer, drop, rejoin).
func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
