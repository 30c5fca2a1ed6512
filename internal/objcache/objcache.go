// Package objcache is the serving fast path's decoded-value read cache: a
// sharded, read-through cache of *decoded* store objects (item vectors,
// biases, similar-video lists, hot lists, histories, profiles) keyed by the
// exact key-value store key their encoded form lives under.
//
// The paper hits millisecond top-N latency over a shared memory KV tier
// (§4.1, §5.1) by keeping the per-request store traffic constant and small;
// against a networked store every read is a TCP round trip and every hit
// re-runs a binary decode. objcache removes both costs for warm keys while
// keeping reads coherent:
//
//   - Coherence comes from write-through invalidation, not TTLs: WrapStore
//     (store.go) decorates the kvstore.Store every component writes through,
//     so each Set/Delete/Update drops the key's cached object. Under the
//     topology's single-writer-per-key discipline (fields grouping, §5.1) a
//     reader therefore never sees a value older than the writer's last
//     committed write — a sequential write→read always observes the new
//     value, which is what keeps the golden serving test and the sim
//     harness's state digests byte-identical with the cache on or off.
//   - The remaining concurrent window (a reader decoding an old value while
//     the writer commits) is closed with shard versions: Load records the
//     shard's version before the backing fetch and refuses to install the
//     decoded object if any invalidation touched the shard in between, so a
//     stale decode can never outlive the write that obsoleted it.
//   - Over a store that executes op batches remotely, a batch refreshes the
//     records it rewrote instead of dropping them: the store returns the new
//     bytes, and the next miss decodes them without a round trip (refresh,
//     store.go). The same shard versions decide whether the bytes are still
//     current when they arrive.
//
// Cached objects are shared across callers and MUST be treated as immutable;
// every consumer either reads them in place (vector dot products) or copies
// into fresh output slices (list truncation). Absent keys are cached too
// (present=false) — negative entries are coherent under the same
// invalidation rule and save the round trip that cold-start scoring would
// otherwise pay per request.
package objcache

import (
	"sync"

	"vidrec/internal/metrics"
)

// shardCount spreads keys over independently locked shards so topology
// workers and serving goroutines don't contend on one mutex. Power of two.
const shardCount = 32

// DefaultCapacity is the total entry budget used when a caller passes a
// non-positive capacity to New. Entries are decoded objects (a vector is a
// few hundred bytes), so the default costs a few tens of MB at worst.
const DefaultCapacity = 1 << 15

// Cache is a sharded read-through cache of decoded store objects. All
// methods are safe for concurrent use.
type Cache struct {
	shards [shardCount]cacheShard
	stats  Stats
}

type cacheShard struct {
	mu      sync.Mutex
	entries *lru   // guarded by mu
	version uint64 // guarded by mu; bumped by Invalidate/Flush
}

// cacheEntry is one cached decode result. present=false is a negative entry:
// the key was read and did not exist.
type cacheEntry struct {
	value   any
	present bool
}

// rawRecord is an entry value holding a record's encoded bytes as a write
// left them in the store (see refresh): it answers the store read a miss
// makes, not the miss itself.
type rawRecord []byte

// Stats are the cache's cumulative operation counters (kvstore.Stats-style),
// updated atomically.
type Stats struct {
	Hits          metrics.Counter
	Misses        metrics.Counter
	Puts          metrics.Counter
	Invalidations metrics.Counter
}

// StatsSnapshot is a point-in-time copy of the counters plus the eviction
// and occupancy totals aggregated across shards.
type StatsSnapshot struct {
	Hits, Misses, Puts, Invalidations uint64
	Evictions                         uint64
	Entries                           int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s StatsSnapshot) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// New returns a cache bounded to roughly capacity entries in total; a
// non-positive capacity selects DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := capacity / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].entries = newLRU(per)
	}
	return c
}

// shardIndex hashes key with inline FNV-1a (no hash.Hash allocation) to its
// shard's index.
func (c *Cache) shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h & (shardCount - 1))
}

func (c *Cache) shardFor(key string) *cacheShard {
	return &c.shards[c.shardIndex(key)]
}

// Lookup returns the cached decode result for key. ok reports whether the
// key is cached at all; present distinguishes a cached value from a cached
// absence.
//
// hotpath: the warm serving path is built on allocation-free cache hits
func (c *Cache) Lookup(key string) (v any, present, ok bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries.get(key)
	s.mu.Unlock()
	if !ok || isRaw(e) {
		c.stats.Misses.Inc()
		return nil, false, false
	}
	c.stats.Hits.Inc()
	return e.value, e.present, true
}

// Version returns the key's shard version. Batch loaders capture it before
// the backing fetch and pass it to StoreIfUnchanged so a fetch that raced a
// write never installs the stale decode.
//
// hotpath: called per key on warm batch reads
func (c *Cache) Version(key string) uint64 {
	s := c.shardFor(key)
	s.mu.Lock()
	v := s.version
	s.mu.Unlock()
	return v
}

// StoreIfUnchanged installs a decode result only if no invalidation touched
// the key's shard since version was captured (see Version).
//
// hotpath: the install half of the warm read-through
func (c *Cache) StoreIfUnchanged(key string, v any, present bool, version uint64) {
	s := c.shardFor(key)
	s.mu.Lock()
	if s.version == version {
		s.entries.put(key, cacheEntry{value: v, present: present})
		s.mu.Unlock()
		c.stats.Puts.Inc()
		return
	}
	s.mu.Unlock()
}

// Store unconditionally installs a decode result for key. Use only when the
// value is known-current (e.g. it was just written through the store);
// loaders racing writers go through Load or Version/StoreIfUnchanged.
func (c *Cache) Store(key string, v any, present bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	s.entries.put(key, cacheEntry{value: v, present: present})
	s.mu.Unlock()
	c.stats.Puts.Inc()
}

// Load returns the cached decode result for key, or runs load, caches its
// result and returns it. A load error is returned without caching anything.
// The shard-version guard makes the read-through safe against concurrent
// invalidation: if a write lands between the miss and the load's return, the
// (possibly stale) result is returned to this caller but not cached.
func (c *Cache) Load(key string, load func() (v any, present bool, err error)) (any, bool, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.entries.get(key); ok && !isRaw(e) {
		s.mu.Unlock()
		c.stats.Hits.Inc()
		return e.value, e.present, nil
	}
	version := s.version
	s.mu.Unlock()
	c.stats.Misses.Inc()

	v, present, err := load()
	if err != nil {
		return nil, false, err
	}
	c.StoreIfUnchanged(key, v, present, version)
	return v, present, nil
}

// Invalidate drops the key's cached object and bumps the shard version so
// in-flight loads of any key in the shard cannot install stale results.
func (c *Cache) Invalidate(key string) {
	s := c.shardFor(key)
	s.mu.Lock()
	s.entries.remove(key)
	s.version++
	s.mu.Unlock()
	c.stats.Invalidations.Inc()
}

// shardVersions is what a write-back knows of the shards its keys live in:
// each shard's version as first seen, advanced past the writer's own bumps;
// a shard anyone else bumped is no longer known.
type shardVersions struct {
	known [shardCount]bool
	v     [shardCount]uint64
}

// track readies key for a write-back: it records the key's shard version
// when the write is about to start and reports whether the cache holds the
// key — a record worth refreshing.
func (c *Cache) track(key string, sv *shardVersions) (held bool) {
	i := c.shardIndex(key)
	s := &c.shards[i]
	s.mu.Lock()
	if !sv.known[i] {
		sv.known[i], sv.v[i] = true, s.version
	}
	_, held = s.entries.get(key)
	s.mu.Unlock()
	return held
}

// refresh ends the write-back of key, whose write has landed: it installs
// raw, the record the write left in the store, in place of the cached
// object, or — when raw is nil, or something else bumped the shard since
// track — drops the object as Invalidate does. Either way the shard version
// moves on, so no load that started before the write can install what it
// read. The installed bytes serve the next miss's store read without a round
// trip; that reader decodes them and replaces the entry.
func (c *Cache) refresh(key string, raw []byte, sv *shardVersions) {
	i := c.shardIndex(key)
	s := &c.shards[i]
	s.mu.Lock()
	current := sv.known[i] && s.version == sv.v[i]
	if raw != nil && current {
		s.entries.put(key, cacheEntry{value: rawRecord(raw), present: true})
	} else {
		s.entries.remove(key)
	}
	s.version++
	sv.known[i], sv.v[i] = current, s.version
	s.mu.Unlock()
	c.stats.Invalidations.Inc()
}

// holdsRaw reports whether a write-back left key's encoded record.
func (c *Cache) holdsRaw(key string) bool {
	_, ok := c.raw(key)
	return ok
}

// raw returns the encoded record a write-back left for key, if the cache
// holds one.
func (c *Cache) raw(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries.get(key)
	s.mu.Unlock()
	raw, isRaw := e.value.(rawRecord)
	return raw, ok && isRaw
}

func isRaw(e cacheEntry) bool {
	_, raw := e.value.(rawRecord)
	return raw
}

// Flush empties the cache (benchmarks use it to measure cold-cache serving).
func (c *Cache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// Rebuild rather than iterate-and-remove; capacity is unchanged.
		s.entries = newLRU(s.entries.capacity)
		s.version++
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.entries.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns the cache's cumulative counters.
func (c *Cache) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Hits:          c.stats.Hits.Load(),
		Misses:        c.stats.Misses.Load(),
		Puts:          c.stats.Puts.Load(),
		Invalidations: c.stats.Invalidations.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		snap.Evictions += s.entries.evictions
		snap.Entries += s.entries.order.Len()
		s.mu.Unlock()
	}
	return snap
}

// Cached is the typed read-through helper components build their fast paths
// on. A nil cache degrades to calling load directly, so callers need no
// cache-enabled/-disabled branches; the returned ok reports presence (a
// cached or loaded absence returns the zero T and false).
func Cached[T any](c *Cache, key string, load func() (T, bool, error)) (T, bool, error) {
	if c == nil {
		return load()
	}
	// alloccheck: one adapter closure per read-through is inside the warm budget
	v, present, err := c.Load(key, func() (any, bool, error) {
		tv, ok, err := load()
		if err != nil {
			return nil, false, err
		}
		return tv, ok, nil
	})
	var zero T
	if err != nil {
		return zero, false, err
	}
	if !present {
		return zero, false, nil
	}
	return v.(T), true, nil
}
