package objcache

import (
	"bytes"
	"context"
	"slices"

	"vidrec/internal/kvstore"
)

// invalidatingStore decorates a kvstore.Store so every write drops the
// written key's cached decoded object. This is the single hook that keeps
// the cache coherent: components never invalidate by hand, they just write
// through the store they were constructed with, exactly as before.
//
// Invalidation happens after the inner operation returns — the shard-version
// guard in Cache.Load then guarantees no reader can install a decode of the
// pre-write bytes afterwards. Failed writes invalidate too: dropping a
// still-valid entry costs one re-read, while skipping an invalidation on a
// partially applied write could serve stale objects forever.
//
// Over a store that executes op batches itself (kvstore.Applier: the network
// client and the decorators in front of it), a batch asks for the records it
// rewrites that the cache holds, and refreshes those entries with the bytes
// instead of dropping them: the next reader decodes them without a round
// trip. A faster writer would otherwise cost every reader of the records it
// rewrites — the global mean and hot lists every request reads — one round
// trip per write. Over any other store (Local) a read is no round trip, and
// batches only invalidate.
type invalidatingStore struct {
	inner  kvstore.Store
	cache  *Cache
	remote bool // inner is a kvstore.Applier: batches refresh what they rewrite
}

// WrapStore returns a Store whose writes invalidate cache. A nil cache
// returns inner unchanged.
func WrapStore(inner kvstore.Store, cache *Cache) kvstore.Store {
	if cache == nil {
		return inner
	}
	_, remote := inner.(kvstore.Applier)
	return &invalidatingStore{inner: inner, cache: cache, remote: remote}
}

// Get implements kvstore.Store. Reads pass through to the store's truth —
// served locally when a batch's refresh left the key's bytes in the cache —
// and byte-level callers never see a decoded object.
func (s *invalidatingStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if s.remote {
		if raw, ok := s.cache.raw(key); ok {
			return bytes.Clone(raw), true, nil
		}
	}
	return s.inner.Get(ctx, key)
}

// MGet implements kvstore.Store, serving refreshed keys as Get does and
// fetching the rest in one inner MGet.
func (s *invalidatingStore) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	if !s.remote || !slices.ContainsFunc(keys, s.cache.holdsRaw) {
		return s.inner.MGet(ctx, keys)
	}
	out := make([][]byte, len(keys))
	var rest []string
	var at []int
	for i, k := range keys {
		if raw, ok := s.cache.raw(k); ok {
			out[i] = bytes.Clone(raw)
			continue
		}
		rest = append(rest, k)
		at = append(at, i)
	}
	if len(rest) > 0 {
		vals, err := s.inner.MGet(ctx, rest)
		if err != nil {
			return nil, err
		}
		for j, v := range vals {
			out[at[j]] = v
		}
	}
	return out, nil
}

// Len implements kvstore.Store.
func (s *invalidatingStore) Len(ctx context.Context) (int, error) {
	return s.inner.Len(ctx)
}

// Set implements kvstore.Store, invalidating key after the write.
func (s *invalidatingStore) Set(ctx context.Context, key string, val []byte) error {
	err := s.inner.Set(ctx, key, val)
	s.cache.Invalidate(key)
	return err
}

// Delete implements kvstore.Store, invalidating key after the delete.
func (s *invalidatingStore) Delete(ctx context.Context, key string) (bool, error) {
	ok, err := s.inner.Delete(ctx, key)
	s.cache.Invalidate(key)
	return ok, err
}

// ApplyOps implements kvstore.Applier: the batch passes through whole, and
// every key it touched is invalidated once it returns — or, over a remote
// store, refreshed with the record the op left behind when the cache held the
// key and no other write touched its shard meanwhile (Cache.refresh).
func (s *invalidatingStore) ApplyOps(ctx context.Context, ops []kvstore.Op) (int, error) {
	if !s.remote {
		n, err := kvstore.Apply(ctx, s.inner, ops...)
		for i := range ops {
			s.cache.Invalidate(ops[i].Key)
		}
		return n, err
	}
	var sv shardVersions
	for i := range ops {
		ops[i].Want = s.cache.track(ops[i].Key, &sv)
	}
	n, err := kvstore.Apply(ctx, s.inner, ops...)
	for i := range ops {
		var raw []byte // an op the batch did not apply leaves the key unknown
		if i < n {
			raw = ops[i].Result()
		}
		s.cache.refresh(ops[i].Key, raw, &sv) // in batch order: a key's last write is what stays
	}
	return n, err
}

// Update implements kvstore.Store, invalidating key after the read-modify-
// write commits.
func (s *invalidatingStore) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	err := s.inner.Update(ctx, key, fn)
	s.cache.Invalidate(key)
	return err
}
