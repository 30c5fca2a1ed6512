// Package history maintains per-user behaviour histories — the state the
// UserHistory bolt of Figure 2 records in the key-value store. Histories
// serve two consumers: the GetItemPairs bolt pairs a new action's video with
// the user's recent videos to drive similar-video updates, and the
// recommendation service uses recent videos as seeds when the user is not
// currently watching anything ("Guess you like", §6.2).
package history

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
)

// Event is one remembered interaction: the video and when it happened.
type Event struct {
	VideoID string
	Time    time.Time
}

// Store keeps bounded recency-ordered histories in a key-value store.
type Store struct {
	kv    kvstore.Store
	ns    string
	keys  *kvstore.Keys // memoized ns-qualified keys (user-id-bounded)
	limit int
	cache *objcache.Cache // nil disables the decoded-history read cache
}

// SetCache attaches a decoded-value read cache for history records. The
// cache must wrap the same store via objcache.WrapStore so Append
// invalidates it. Cached records (events, video list, membership set) are
// shared and read-only; readers only re-slice, never mutate.
func (s *Store) SetCache(c *objcache.Cache) { s.cache = c }

// New returns a history store under the given namespace keeping at most
// limit events per user.
func New(name string, kv kvstore.Store, limit int) (*Store, error) {
	if name == "" {
		return nil, fmt.Errorf("history: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("history: store must not be nil")
	}
	if limit <= 0 {
		return nil, fmt.Errorf("history: limit must be positive, got %d", limit)
	}
	ns := name + ".hist"
	return &Store{kv: kv, ns: ns, keys: kvstore.NewKeys(ns), limit: limit}, nil
}

// Histories are stored as scored entry lists: ID = video, Score = unix
// milliseconds. Reusing the entry codec keeps one binary format per store.

func decode(raw []byte) ([]Event, error) {
	entries, err := kvstore.DecodeEntries(raw)
	if err != nil {
		return nil, err
	}
	events := make([]Event, len(entries)) // alloccheck: miss-path decode; warm requests reuse the cached record
	for i, e := range entries {
		events[i] = Event{VideoID: e.ID, Time: time.UnixMilli(int64(e.Score))}
	}
	return events, nil
}

// Append records an interaction, newest first. A video already present moves
// to the front with the new timestamp rather than duplicating: the history
// answers "which distinct videos did this user touch recently", and repeated
// plays of one video should not crowd out the rest.
func (s *Store) Append(ctx context.Context, userID, videoID string, ts time.Time) error {
	if userID == "" || videoID == "" {
		return fmt.Errorf("history: user and video ids must not be empty")
	}
	key := s.keys.Key(userID)
	return s.kv.Update(ctx, key, func(cur []byte, ok bool) ([]byte, bool) {
		return s.rewrite(cur, ok, videoID, ts), true
	})
}

// rewrite is Append's record transform, a pure function of the stored bytes
// (a retrying store may run it once per attempt). It walks cur twice without
// decoding it: once to validate it and size the result, once to copy the
// entries that stay behind the new one, timestamps as whole milliseconds.
//
// hotpath: every positive action rewrites the user's history through here
func (s *Store) rewrite(cur []byte, ok bool, videoID string, ts time.Time) []byte {
	var idBuf [64]byte
	id := append(idBuf[:0], videoID...) // compared as bytes; an id longer than this spills to the heap, no more
	kept, size := 0, 0
	if ok {
		kept, size = s.survivors(cur, id)
	}
	size += kvstore.UvarintSize(uint64(kept+1)) + kvstore.EntrySize(len(id))
	buf := make([]byte, 0, size) // alloccheck: the rewritten record, the one allocation of a rewrite
	buf = binary.AppendUvarint(buf, uint64(kept+1))
	buf = kvstore.AppendEntry(buf, id, float64(ts.UnixMilli()))
	c, _ := kvstore.NewEntryCursor(cur) // kept > 0 only if survivors walked all of cur without an error
	for kept > 0 {
		e, _, _ := c.Next() // as above, and kept more entries are to come
		if bytes.Equal(e.ID, id) {
			continue
		}
		buf = kvstore.AppendEntry(buf, e.ID, float64(int64(e.Score)))
		kept--
	}
	return buf
}

// survivors counts the entries of an encoded history that a new event for
// videoID leaves in place — every other video's, in order, as far as the
// limit has room behind the new event — and sums their encoded size. A
// corrupt record has none: it is dropped and rebuilt; histories are advisory
// state, not a ledger.
func (s *Store) survivors(cur, videoID []byte) (kept, size int) {
	c, err := kvstore.NewEntryCursor(cur)
	if err != nil {
		return 0, 0
	}
	for {
		e, ok, err := c.Next()
		if err != nil {
			return 0, 0
		}
		if !ok {
			return kept, size
		}
		if kept < s.limit-1 && !bytes.Equal(e.ID, videoID) {
			kept++
			size += kvstore.EntrySize(len(e.ID))
		}
	}
}

// record is the cached decoded form of one user's history: the stored events
// plus two derived read-only views — the video ids in recency order and their
// membership set — built once per decode so the serving path never rebuilds
// them per request. All three fields are shared through the cache and must
// never be modified after construction.
type record struct {
	events []Event
	videos []string
	set    map[string]bool
}

func newRecord(events []Event) record {
	videos := make([]string, len(events))     // alloccheck: miss-path decode; warm requests reuse the cached record
	set := make(map[string]bool, len(events)) // alloccheck: miss-path decode; warm requests reuse the cached record
	for i, e := range events {
		videos[i] = e.VideoID
		set[e.VideoID] = true
	}
	return record{events: events, videos: videos, set: set}
}

// load fetches and decodes the user's record, through the cache when one is
// attached. A cache hit returns without building the loader closure.
//
// hotpath: every serving request reads the user's history through here
func (s *Store) load(ctx context.Context, userID string) (record, bool, error) {
	key := s.keys.Key(userID)
	if s.cache != nil {
		if tv, present, ok := s.cache.Lookup(key); ok {
			if !present {
				return record{}, false, nil
			}
			return tv.(record), true, nil
		}
	}
	// alloccheck: one loader closure per read-through MISS; warm hits return above
	return objcache.Cached(s.cache, key, func() (record, bool, error) {
		raw, ok, err := s.kv.Get(ctx, key)
		if err != nil {
			return record{}, false, fmt.Errorf("history: get %s: %w", userID, err)
		}
		if !ok {
			return record{}, false, nil
		}
		dec, err := decode(raw)
		if err != nil {
			return record{}, false, fmt.Errorf("history: corrupt record for %s: %w", userID, err)
		}
		return newRecord(dec), true, nil
	})
}

// Recent returns up to k events, newest first. The returned slice may alias
// a cache-shared decode: callers must not modify it.
func (s *Store) Recent(ctx context.Context, userID string, k int) ([]Event, error) {
	rec, ok, err := s.load(ctx, userID)
	if err != nil || !ok {
		return nil, err
	}
	events := rec.events
	if k >= 0 && k < len(events) {
		events = events[:k]
	}
	return events, nil
}

// RecentVideos returns up to k distinct video ids, newest first. The slice
// may alias a cache-shared view: callers must not modify it.
func (s *Store) RecentVideos(ctx context.Context, userID string, k int) ([]string, error) {
	rec, ok, err := s.load(ctx, userID)
	if err != nil || !ok {
		return nil, err
	}
	videos := rec.videos
	if k >= 0 && k < len(videos) {
		videos = videos[:k]
	}
	return videos, nil
}

// Watched returns up to k recent video ids (newest first) together with the
// membership set over the user's entire stored history. The set always covers
// the full record regardless of k — the serving exclusion wants "everything
// we know this user watched", and the store's own limit is that window. Both
// views are cache-shared and read-only; an unknown user yields (nil, nil).
func (s *Store) Watched(ctx context.Context, userID string, k int) ([]string, map[string]bool, error) {
	rec, ok, err := s.load(ctx, userID)
	if err != nil || !ok {
		return nil, nil, err
	}
	videos := rec.videos
	if k >= 0 && k < len(videos) {
		videos = videos[:k]
	}
	return videos, rec.set, nil
}

// Limit returns the configured per-user bound.
func (s *Store) Limit() int { return s.limit }
