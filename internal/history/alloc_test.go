package history

import (
	"context"
	"testing"

	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
)

// TestWatchedWarmAllocs pins the warm (cache-hit) allocation count of the
// serving path's history read, Store.Watched: the decode allocations
// (events/videos/set in newRecord) happen only on a miss, so a cache hit
// must see none of them. The single remaining allocation is the
// kvstore.Key concat; the read-through closures stay on the stack (they do
// not escape Cached).
func TestWatchedWarmAllocs(t *testing.T) {
	ctx := context.Background()
	s, err := New("t", kvstore.NewLocal(4), 10)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCache(objcache.New(64))
	for i, v := range []string{"a", "b", "c"} {
		if err := s.Append(ctx, "u1", v, at(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// First call decodes through the store and fills the cache.
	if _, _, err := s.Watched(ctx, "u1", 5); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, _, err := s.Watched(ctx, "u1", 5); err != nil {
			t.Fatal(err)
		}
	})
	// 1 = the namespaced key string; the cached record is served as-is.
	if avg > 1 {
		t.Fatalf("warm Watched allocates %v objects/op, want <= 1", avg)
	}
}
