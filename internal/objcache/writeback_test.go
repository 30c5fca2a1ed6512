package objcache

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vidrec/internal/kvstore"
)

// remoteStore returns a wrapped store whose inner store executes op batches
// (Resilient passes them to Local), so batches refresh what they rewrite, and
// the Local behind it, whose counters show which reads reached the store.
func remoteStore(cache *Cache) (kvstore.Store, *kvstore.Local) {
	local := kvstore.NewLocal(4)
	return WrapStore(kvstore.NewResilient(local, kvstore.ResilienceConfig{}, 1), cache), local
}

// lagging applies a batch, then runs after before replying — a slow
// network, so that concurrent writers' replies return out of order.
type lagging struct {
	kvstore.Store
	after func(call int64)
	calls atomic.Int64
}

func (l *lagging) ApplyOps(ctx context.Context, ops []kvstore.Op) (int, error) {
	n, err := kvstore.Apply(ctx, l.Store, ops...)
	l.after(l.calls.Add(1))
	return n, err
}

func fold(key string, r float64) kvstore.Op {
	return kvstore.Op{Kind: kvstore.OpMeanFold, Key: key, Score: r}
}

// readRecord reads key through the cache the way components do: a decoded
// object when the cache holds one, else a load through the store.
func readRecord(t *testing.T, cache *Cache, store kvstore.Store, key string) string {
	t.Helper()
	v, _, err := Cached(cache, key, func() (string, bool, error) {
		b, ok, err := store.Get(context.Background(), key)
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

// TestBatchRefreshesHeldRecords: a batch over a remote store refreshes the
// records the cache held, so the next miss decodes the new bytes without a
// store read, and leaves records it did not hold to the store.
func TestBatchRefreshesHeldRecords(t *testing.T) {
	ctx := context.Background()
	cache := New(0)
	store, local := remoteStore(cache)
	if _, err := kvstore.Apply(ctx, store, fold("held", 1), fold("cold", 1)); err != nil {
		t.Fatal(err)
	}
	first := readRecord(t, cache, store, "held")

	gets := local.Stats().Snapshot().Gets
	if _, err := kvstore.Apply(ctx, store, fold("held", 3), fold("cold", 3), fold("held", 5)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cache.Lookup("held"); ok {
		t.Fatal("the decoded object survived a write")
	}
	got := readRecord(t, cache, store, "held")
	if n := local.Stats().Snapshot().Gets - gets; n != 0 {
		t.Fatalf("the read after the batch made %d store reads, want 0", n)
	}
	want, _, _ := local.Get(ctx, "held")
	if got != string(want) || got == first {
		t.Fatalf("read after the batch = %x, the store holds %x", got, want)
	}
	if _, ok := cache.raw("cold"); ok {
		t.Fatal("a batch refreshed a record the cache did not hold")
	}
}

// TestBatchRefreshLosesToOtherWrites: a write the batch did not make to the
// shard in the meantime, or an op the batch did not apply, leaves nothing to
// serve — the next read goes to the store.
func TestBatchRefreshLosesToOtherWrites(t *testing.T) {
	ctx := context.Background()
	cache := New(0)
	store, local := remoteStore(cache)
	if _, err := kvstore.Apply(ctx, store, fold("k", 1)); err != nil {
		t.Fatal(err)
	}
	readRecord(t, cache, store, "k")

	var sv shardVersions
	if !cache.track("k", &sv) {
		t.Fatal("track does not see the held record")
	}
	cache.Invalidate("k") // another writer's write lands mid-batch
	cache.refresh("k", []byte("stale"), &sv)
	if _, ok := cache.raw("k"); ok {
		t.Fatal("a refresh installed bytes after another write to the shard")
	}

	readRecord(t, cache, store, "k")
	sv = shardVersions{}
	cache.track("k", &sv)
	cache.refresh("k", nil, &sv) // the op was not applied
	if _, ok := cache.raw("k"); ok {
		t.Fatal("an unapplied op left bytes behind")
	}
	want, _, _ := local.Get(ctx, "k")
	if got := readRecord(t, cache, store, "k"); got != string(want) {
		t.Fatalf("read = %x, the store holds %x", got, want)
	}
}

// TestBatchRefreshCoherentUnderConcurrentWriters folds into one record from
// several writers while readers read it through the cache; run under -race.
// Writers' replies return out of order, so a refresh may hold bytes another
// writer has since replaced — once every writer has returned, the cache must
// serve exactly what the store holds.
func TestBatchRefreshCoherentUnderConcurrentWriters(t *testing.T) {
	ctx := context.Background()
	cache := New(0)
	local := kvstore.NewLocal(4)
	store := WrapStore(&lagging{Store: local, after: func(call int64) {
		time.Sleep(time.Duration(call%4) * 50 * time.Microsecond)
	}}, cache)
	const writers, folds = 4, 300
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < folds; i++ {
				if _, err := kvstore.Apply(ctx, store, fold("mean", 1), fold("other", 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := Cached(cache, "mean", func() ([]byte, bool, error) {
					return store.Get(ctx, "mean")
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	want, _, _ := local.Get(ctx, "mean")
	if vals, err := kvstore.DecodeFloats(want); err != nil || vals[1] != writers*folds {
		t.Fatalf("the store folded %v of %d ratings (%v)", vals, writers*folds, err)
	}
	got, _, err := Cached(cache, "mean", func() ([]byte, bool, error) { return store.Get(ctx, "mean") })
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cache serves %x (%v), the store holds %x", got, err, want)
	}
}

// TestBatchRefreshOutOfOrderReply: a writer whose reply comes back after a
// later writer's must not leave its older record behind.
func TestBatchRefreshOutOfOrderReply(t *testing.T) {
	ctx := context.Background()
	cache := New(0)
	local := kvstore.NewLocal(4)
	applied, release := make(chan struct{}), make(chan struct{})
	store := WrapStore(&lagging{Store: local, after: func(call int64) {
		if call == 2 { // the first writer's batch, once applied, waits for the second's reply
			close(applied)
			<-release
		}
	}}, cache)
	if _, err := kvstore.Apply(ctx, store, fold("k", 1)); err != nil {
		t.Fatal(err)
	}
	readRecord(t, cache, store, "k")

	done := make(chan error)
	go func() {
		_, err := kvstore.Apply(ctx, store, fold("k", 2))
		done <- err
	}()
	<-applied
	if _, err := kvstore.Apply(ctx, store, fold("k", 3)); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want, _, _ := local.Get(ctx, "k")
	if got := readRecord(t, cache, store, "k"); got != string(want) {
		t.Fatalf("cache serves %x, the store holds %x: the late reply's older record stayed", got, want)
	}
}
