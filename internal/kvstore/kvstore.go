// Package kvstore provides the distributed memory-based key-value storage
// the paper's topology keeps all shared state in (§5.1): user and item
// latent vectors, biases, user behaviour histories, and per-video top-N
// similar lists.
//
// Two implementations share one interface:
//
//   - Local: a sharded in-memory store with per-shard locking, the
//     single-process stand-in for Tencent's in-house distributed store.
//   - Client/Server (net.go): the same store exposed over TCP with a gob
//     protocol, so the topology can run against a genuinely remote store.
//
// Values are raw bytes; codec.go provides the binary encodings used for
// vectors and scored lists. The paper's topology guarantees that only one
// worker writes a given key at a time (fields grouping by key), which is why
// the interface can offer a plain Set rather than compare-and-swap.
//
// The write path's read-modify-writes are ops (op.go): the similar-table,
// hot-list and history rewrites and the global-mean fold, each a named,
// serializable, pure function of the stored bytes. Apply runs a batch of
// them; the network client ships the batch in one frame and the server
// executes it, so those rewrites are atomic on every store configuration and
// cost one round trip per batch. The closure-taking Update remains for
// writers without an op (the bandit state) and for stores that take none.
package kvstore

import (
	"context"
	"sync"
	"sync/atomic"
)

// Store is the key-value abstraction the recommendation pipeline runs on.
// Implementations must be safe for concurrent use.
//
// Every operation takes a context: the network-backed implementation turns
// its deadline into connection deadlines and its cancellation into an early
// return, so a slow storage tier cannot wedge the serving path. The in-memory
// implementation honours cancellation before touching a shard. Callers on the
// serving and topology paths must thread the request or run context through —
// the ctxcheck lint pass enforces that no new context roots appear outside
// cmd/.
type Store interface {
	// Get returns a copy of the value stored under key.
	Get(ctx context.Context, key string) ([]byte, bool, error)
	// Set stores a copy of val under key.
	Set(ctx context.Context, key string, val []byte) error
	// Delete removes key, reporting whether it existed.
	Delete(ctx context.Context, key string) (bool, error)
	// MGet returns values for all keys; missing keys yield nil entries.
	MGet(ctx context.Context, keys []string) ([][]byte, error)
	// Update atomically applies fn to the current value (nil, false if
	// absent). fn returns the new value, or ok=false to delete the key.
	// The atomicity guarantee is per-key and only holds within a Local
	// store; the network client implements Update as get-modify-set, which
	// is safe under the topology's single-writer-per-key discipline. The
	// list and mean rewrites are ops instead (Apply), which the server
	// executes atomically; fn is for writers without one.
	Update(ctx context.Context, key string, fn func(cur []byte, exists bool) (next []byte, ok bool)) error
	// Len reports the number of stored keys.
	Len(ctx context.Context) (int, error)
}

// Stats are cumulative operation counters, updated atomically.
type Stats struct {
	Gets    atomic.Uint64
	Hits    atomic.Uint64
	Sets    atomic.Uint64
	Deletes atomic.Uint64
	Updates atomic.Uint64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Gets:    s.Gets.Load(),
		Hits:    s.Hits.Load(),
		Sets:    s.Sets.Load(),
		Deletes: s.Deletes.Load(),
		Updates: s.Updates.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Gets, Hits, Sets, Deletes, Updates uint64
}

// HitRate returns Hits/Gets, or 0 when no Get has been issued.
func (s StatsSnapshot) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Local is a sharded in-memory Store. Keys are partitioned across shards by
// FNV-1a hash; each shard has its own RWMutex, so operations on different
// shards never contend. This mirrors how a distributed store partitions keys
// across nodes, collapsed into one process.
type Local struct {
	shards []shard
	mask   uint32
	stats  Stats
}

type shard struct {
	mu sync.RWMutex
	m  map[string][]byte // guarded by mu
}

// NewLocal returns a Local store with the given shard count, rounded up to a
// power of two (minimum 1).
func NewLocal(shards int) *Local {
	n := 1
	for n < shards {
		n <<= 1
	}
	l := &Local{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range l.shards {
		l.shards[i].m = make(map[string][]byte)
	}
	return l
}

// fnv1a32 is FNV-1a inlined over the key string. hash/fnv's New32a allocates
// its hash.Hash32 state on every call, which put one heap allocation on every
// store operation; the inlined form hashes from the string without copying it
// to a []byte either. Kept bit-identical to hash/fnv (pinned by a test) so
// shard assignment never silently shifts.
func fnv1a32(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

func (l *Local) shardFor(key string) *shard {
	return &l.shards[fnv1a32(key)&l.mask]
}

// Get implements Store.
func (l *Local) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	l.stats.Gets.Add(1)
	s := l.shardFor(key)
	s.mu.RLock()
	v, ok := s.m[key]
	var cp []byte
	if ok {
		cp = make([]byte, len(v))
		copy(cp, v)
	}
	s.mu.RUnlock()
	if ok {
		l.stats.Hits.Add(1)
	}
	return cp, ok, nil
}

// Set implements Store.
func (l *Local) Set(ctx context.Context, key string, val []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.stats.Sets.Add(1)
	cp := make([]byte, len(val))
	copy(cp, val)
	s := l.shardFor(key)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

// Delete implements Store.
func (l *Local) Delete(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	l.stats.Deletes.Add(1)
	s := l.shardFor(key)
	s.mu.Lock()
	_, ok := s.m[key]
	delete(s.m, key)
	s.mu.Unlock()
	return ok, nil
}

// MGet implements Store.
func (l *Local) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, ok, err := l.Get(ctx, k) // fails only on context cancellation
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = v
		}
	}
	return out, nil
}

// Update implements Store. The callback runs under the shard's write lock,
// so concurrent updates of the same key serialize.
func (l *Local) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.stats.Updates.Add(1)
	s := l.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[key]
	var curCopy []byte
	if ok {
		curCopy = make([]byte, len(cur))
		copy(curCopy, cur)
	}
	next, keep := fn(curCopy, ok)
	if !keep {
		delete(s.m, key)
		return nil
	}
	cp := make([]byte, len(next))
	copy(cp, next)
	s.m[key] = cp
	return nil
}

// Len implements Store.
func (l *Local) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n, nil
}

// Stats returns the store's cumulative operation counters.
func (l *Local) Stats() *Stats { return &l.stats }

// Shards returns the number of shards (always a power of two).
func (l *Local) Shards() int { return len(l.shards) }

// ForEach calls fn for every key/value pair, shard by shard, holding each
// shard's read lock only while iterating it. The value passed to fn is the
// live slice and must not be retained or modified. Used by batch baselines
// that scan state (e.g. AR mining over recorded histories).
func (l *Local) ForEach(fn func(key string, val []byte) bool) {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// Key builds a namespaced key. The topology stores several kinds of state in
// one store; namespaces keep them apart ("uv" user vector, "iv" item vector,
// "ub"/"ib" biases, "uh" user history, "sim" similar list, ...).
func Key(namespace, id string) string {
	return namespace + ":" + id
}
