package objcache

import (
	"context"
	"sync"
	"testing"

	"vidrec/internal/kvstore"
)

// switchableStore delegates to an inner store but can be flipped to fail
// every operation — a replica dying and coming back.
type switchableStore struct {
	inner kvstore.Store

	mu   sync.Mutex
	dead bool // guarded by mu
}

func (s *switchableStore) setDead(dead bool) {
	s.mu.Lock()
	s.dead = dead
	s.mu.Unlock()
}

func (s *switchableStore) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return kvstore.ErrInjected
	}
	return nil
}

func (s *switchableStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if err := s.check(); err != nil {
		return nil, false, err
	}
	return s.inner.Get(ctx, key)
}

func (s *switchableStore) Set(ctx context.Context, key string, val []byte) error {
	if err := s.check(); err != nil {
		return err
	}
	return s.inner.Set(ctx, key, val)
}

func (s *switchableStore) Delete(ctx context.Context, key string) (bool, error) {
	if err := s.check(); err != nil {
		return false, err
	}
	return s.inner.Delete(ctx, key)
}

func (s *switchableStore) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return s.inner.MGet(ctx, keys)
}

func (s *switchableStore) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	if err := s.check(); err != nil {
		return err
	}
	return s.inner.Update(ctx, key, fn)
}

func (s *switchableStore) Len(ctx context.Context) (int, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.inner.Len(ctx)
}

// TestWrapStoreCoherentAcrossReplicas pins the composition rule the serving
// stack relies on: ONE cache wrapped around the whole replicated tier (a
// primary/backup group behind its router, not one cache per replica) stays
// coherent through a primary failover, because every write path still runs
// through the single WrapStore decorator whichever replica applied it.
func TestWrapStoreCoherentAcrossReplicas(t *testing.T) {
	ctx := context.Background()
	primary := &switchableStore{inner: kvstore.NewLocal(4)}
	backup := kvstore.NewLocal(4)
	tier, err := kvstore.NewReplicated(primary, backup)
	if err != nil {
		t.Fatal(err)
	}
	cache := New(0)
	store := WrapStore(tier, cache)

	read := func(key string) (string, bool) {
		v, present, err := Cached(cache, key, func() (string, bool, error) {
			b, ok, err := store.Get(ctx, key)
			if err != nil || !ok {
				return "", false, err
			}
			return string(b), true, nil
		})
		if err != nil {
			t.Fatalf("read %q: %v", key, err)
		}
		return v, present
	}

	// Healthy: the write lands on both replicas, the read caches the decode.
	if err := store.Set(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, _ := read("k"); v != "v1" {
		t.Fatalf("read = %q, want v1", v)
	}

	// Primary dies. The write promotes the backup and lands there alone —
	// but it MUST still invalidate the cached decode of the old value.
	primary.setDead(true)
	if err := store.Set(ctx, "k", []byte("v2")); err != nil {
		t.Fatalf("Set with dead primary = %v, want the backup promoted to take it", err)
	}
	if v, _ := read("k"); v != "v2" {
		t.Fatalf("read after failover write = %q — stale cache survived the failover", v)
	}

	// The old primary comes back holding the pre-outage value. The group
	// keeps it down until a Rejoin, so neither the cache nor an uncached
	// read may ever see its stale v1.
	primary.setDead(false)
	if v, present := read("k"); !present || v != "v2" {
		t.Fatalf("read after the old primary returned = %q,%v, want v2", v, present)
	}
	cache.Flush()
	if v, _ := read("k"); v != "v2" {
		t.Fatalf("uncached read after the old primary returned = %q — the stale replica answered", v)
	}

	// A fresh write invalidates; every subsequent read — cached or not —
	// agrees.
	if err := store.Set(ctx, "k", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if v, _ := read("k"); v != "v3" {
		t.Fatalf("read after recovery write = %q, want v3", v)
	}
	cache.Flush()
	if v, _ := read("k"); v != "v3" {
		t.Fatalf("uncached read after recovery write = %q, want v3", v)
	}

	// Delete through the stack leaves a coherent negative entry.
	if _, err := store.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, present := read("k"); present {
		t.Fatal("read after replicated delete still present")
	}
}
