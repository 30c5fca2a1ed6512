package simtable

import (
	"context"
	"testing"

	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
)

// TestSimilarBatchWarmAllocs pins the warm (cache-hit) allocation count of
// the serving-path batch read of SimilarBatch: with every table cached, the
// only allocations are the per-seed key headers (the kvstore.Key concat),
// the result slice, and the damped copy-out per seed. The miss-path
// accumulators (missKeys/missVers/missIdx) and the install boxing must
// contribute nothing on hits — if this bound creeps, miss-path work has
// leaked onto the warm path.
func TestSimilarBatchWarmAllocs(t *testing.T) {
	ctx := context.Background()
	tb, err := New("t", kvstore.NewLocal(4), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb.SetCache(objcache.New(64))
	for i, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"b", "d"}} {
		if err := tb.UpdateDirected(ctx, pair[0], pair[1], 1.0, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	videos := []string{"a", "b"}
	// First call decodes through the store and fills the cache.
	if _, err := tb.SimilarBatch(ctx, videos, 3, at(10)); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, err := tb.SimilarBatch(ctx, videos, 3, at(10)); err != nil {
			t.Fatal(err)
		}
	})
	// 5 = result slice + 2 seed key strings + 2 damped copy-outs.
	if avg > 5 {
		t.Fatalf("warm SimilarBatch allocates %v objects/op, want <= 5", avg)
	}
}
