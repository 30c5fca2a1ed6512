package objcache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"vidrec/internal/kvstore"
)

func TestLookupStoreInvalidate(t *testing.T) {
	c := New(0)
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Store("k", 42, true)
	v, present, ok := c.Lookup("k")
	if !ok || !present || v.(int) != 42 {
		t.Fatalf("Lookup = (%v, %v, %v), want (42, true, true)", v, present, ok)
	}
	c.Invalidate("k")
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("Lookup hit after Invalidate")
	}
}

func TestNegativeEntries(t *testing.T) {
	c := New(0)
	c.Store("missing", nil, false)
	v, present, ok := c.Lookup("missing")
	if !ok {
		t.Fatal("negative entry was not cached")
	}
	if present || v != nil {
		t.Fatalf("negative entry = (%v, %v), want (nil, false)", v, present)
	}
	// A write through the store must upgrade the negative entry.
	c.Invalidate("missing")
	c.Store("missing", "now-here", true)
	v, present, ok = c.Lookup("missing")
	if !ok || !present || v.(string) != "now-here" {
		t.Fatalf("after invalidate+store: (%v, %v, %v)", v, present, ok)
	}
}

func TestLoadCachesResult(t *testing.T) {
	c := New(0)
	calls := 0
	load := func() (any, bool, error) { calls++; return "v", true, nil }
	for i := 0; i < 3; i++ {
		v, present, err := c.Load("k", load)
		if err != nil || !present || v.(string) != "v" {
			t.Fatalf("Load %d = (%v, %v, %v)", i, v, present, err)
		}
	}
	if calls != 1 {
		t.Fatalf("backing load ran %d times, want 1", calls)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := New(0)
	boom := fmt.Errorf("store down")
	if _, _, err := c.Load("k", func() (any, bool, error) { return nil, false, boom }); err != boom {
		t.Fatalf("Load error = %v, want %v", err, boom)
	}
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("failed load left a cache entry")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after failed load, want 0", c.Len())
	}
}

// TestStaleLoadNotInstalled is the shard-version guard: a load that raced an
// invalidation must not install its (stale) result.
func TestStaleLoadNotInstalled(t *testing.T) {
	c := New(0)
	_, _, err := c.Load("k", func() (any, bool, error) {
		// A write lands while the backing fetch is in flight.
		c.Invalidate("k")
		return "stale", true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("stale load result was installed despite concurrent invalidation")
	}
}

func TestStoreIfUnchanged(t *testing.T) {
	c := New(0)
	ver := c.Version("k")
	c.Invalidate("k")
	c.StoreIfUnchanged("k", "stale", true, ver)
	if _, _, ok := c.Lookup("k"); ok {
		t.Fatal("StoreIfUnchanged installed under a bumped version")
	}
	ver = c.Version("k")
	c.StoreIfUnchanged("k", "fresh", true, ver)
	if v, _, ok := c.Lookup("k"); !ok || v.(string) != "fresh" {
		t.Fatal("StoreIfUnchanged refused a current version")
	}
}

func TestFlushAndLen(t *testing.T) {
	c := New(0)
	for i := 0; i < 10; i++ {
		c.Store(fmt.Sprintf("k%d", i), i, true)
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	perShard := c.shards[0].entries.capacity
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Flush, want 0", c.Len())
	}
	if _, _, ok := c.Lookup("k3"); ok {
		t.Fatal("Lookup hit after Flush")
	}
	if got := c.shards[0].entries.capacity; got != perShard || got != DefaultCapacity/shardCount {
		t.Errorf("shard capacity %d after Flush, want %d", got, DefaultCapacity/shardCount)
	}
}

func TestSnapshotCounters(t *testing.T) {
	c := New(0)
	c.Lookup("a")         // miss
	c.Store("a", 1, true) // put
	c.Lookup("a")         // hit
	c.Invalidate("a")     // invalidation
	snap := c.Snapshot()
	if snap.Hits != 1 || snap.Misses != 1 || snap.Puts != 1 || snap.Invalidations != 1 {
		t.Fatalf("snapshot = %+v, want 1 of each", snap)
	}
	if got := snap.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
	if (StatsSnapshot{}).HitRate() != 0 {
		t.Fatal("zero snapshot HitRate should be 0")
	}
}

func TestEvictionsCounted(t *testing.T) {
	// Capacity shardCount means one entry per shard: a second key landing
	// in any occupied shard must evict.
	c := New(shardCount)
	for i := 0; i < 4*shardCount; i++ {
		c.Store(fmt.Sprintf("key-%d", i), i, true)
	}
	snap := c.Snapshot()
	if snap.Evictions == 0 {
		t.Fatal("overfilled cache reported zero evictions")
	}
	if snap.Entries > shardCount {
		t.Fatalf("Entries = %d exceeds capacity %d", snap.Entries, shardCount)
	}
}

func TestCachedHelper(t *testing.T) {
	c := New(0)
	calls := 0
	load := func() ([]int, bool, error) { calls++; return []int{1, 2}, true, nil }
	for i := 0; i < 2; i++ {
		v, ok, err := Cached(c, "k", load)
		if err != nil || !ok || len(v) != 2 {
			t.Fatalf("Cached = (%v, %v, %v)", v, ok, err)
		}
	}
	if calls != 1 {
		t.Fatalf("load ran %d times through Cached, want 1", calls)
	}
	// nil cache degrades to a direct call each time.
	calls = 0
	for i := 0; i < 2; i++ {
		if _, _, err := Cached[[]int](nil, "k", load); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil-cache Cached ran load %d times, want 2", calls)
	}
	// Absence yields the zero value.
	v, ok, err := Cached(c, "absent", func() (string, bool, error) { return "ignored", false, nil })
	if err != nil || ok || v != "" {
		t.Fatalf("absent Cached = (%q, %v, %v), want (\"\", false, nil)", v, ok, err)
	}
}

// TestWrapStoreCoherence is the write→invalidate→re-read rule: after any
// write through the wrapped store, a cached read must see the new value.
func TestWrapStoreCoherence(t *testing.T) {
	ctx := context.Background()
	cache := New(0)
	store := WrapStore(kvstore.NewLocal(4), cache)

	read := func(key string) string {
		v, _, err := Cached(cache, key, func() (string, bool, error) {
			b, ok, err := store.Get(ctx, key)
			if err != nil || !ok {
				return "", false, err
			}
			return string(b), true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	if err := store.Set(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := read("k"); got != "v1" {
		t.Fatalf("read = %q, want v1", got)
	}
	if err := store.Set(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := read("k"); got != "v2" {
		t.Fatalf("read after Set = %q — stale cache survived a write", got)
	}
	if err := store.Update(ctx, "k", func(cur []byte, ok bool) ([]byte, bool) {
		return append(cur, '!'), true
	}); err != nil {
		t.Fatal(err)
	}
	if got := read("k"); got != "v2!" {
		t.Fatalf("read after Update = %q, want v2!", got)
	}
	if _, err := store.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if got := read("k"); got != "" {
		t.Fatalf("read after Delete = %q, want absence", got)
	}
	// And the negative entry must upgrade on the next write.
	if err := store.Set(ctx, "k", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if got := read("k"); got != "v3" {
		t.Fatalf("read after re-Set = %q — negative entry survived a write", got)
	}
}

// TestWrapStoreCoherenceConcurrent hammers one key with a writer and several
// cached readers; run under -race this exercises the shard-version guard.
// Readers must only ever observe values the writer actually wrote, and once
// the writer finishes, the final read must see the last write.
func TestWrapStoreCoherenceConcurrent(t *testing.T) {
	ctx := context.Background()
	cache := New(0)
	store := WrapStore(kvstore.NewLocal(4), cache)
	const writes = 200

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i <= writes; i++ {
			if err := store.Set(ctx, "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("Set: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				v, present, err := cache.Load("k", func() (any, bool, error) {
					b, ok, err := store.Get(ctx, "k")
					if err != nil || !ok {
						return nil, false, err
					}
					return string(b), true, nil
				})
				if err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				if present && v.(string) == "" {
					t.Error("read an empty value that was never written")
					return
				}
			}
		}()
	}
	wg.Wait()

	want := fmt.Sprintf("v%d", writes)
	v, present, err := cache.Load("k", func() (any, bool, error) {
		b, ok, err := store.Get(ctx, "k")
		if err != nil || !ok {
			return nil, false, err
		}
		return string(b), true, nil
	})
	if err != nil || !present || v.(string) != want {
		t.Fatalf("final read = (%v, %v, %v), want (%q, true, nil) — a stale decode outlived the last write", v, present, err, want)
	}
}

func TestWrapStoreNilCachePassthrough(t *testing.T) {
	inner := kvstore.NewLocal(1)
	if got := WrapStore(inner, nil); got != kvstore.Store(inner) {
		t.Fatal("WrapStore(inner, nil) should return inner unchanged")
	}
}
