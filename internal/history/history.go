// Package history maintains per-user behaviour histories — the state the
// UserHistory bolt of Figure 2 records in the key-value store. Histories
// serve two consumers: the GetItemPairs bolt pairs a new action's video with
// the user's recent videos to drive similar-video updates, and the
// recommendation service uses recent videos as seeds when the user is not
// currently watching anything ("Guess you like", §6.2).
package history

import (
	"context"
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
	events := make([]Event, len(entries))
	for i, e := range entries {
		events[i] = Event{VideoID: e.ID, Time: time.UnixMilli(int64(e.Score))}
	}
	return events, nil
}

// Append records an interaction, newest first. A video already present moves
// to the front with the new timestamp rather than duplicating: the history
// answers "which distinct videos did this user touch recently", and repeated
// plays of one video should not crowd out the rest. The rewrite is one op the
// store executes (AppendOp).
func (s *Store) Append(ctx context.Context, userID, videoID string, ts time.Time) error {
	op, err := s.AppendOp(userID, videoID, ts)
	if err != nil {
		return err
	}
	_, err = kvstore.Apply(ctx, s.kv, op)
	return err
}

// AppendOp returns Append's rewrite as an op, for a caller that batches it
// with other writes (kvstore.Apply).
func (s *Store) AppendOp(userID, videoID string, ts time.Time) (kvstore.Op, error) {
	if userID == "" || videoID == "" {
		return kvstore.Op{}, fmt.Errorf("history: user and video ids must not be empty")
	}
	return kvstore.Op{Kind: kvstore.OpHistory, Key: s.keys.Key(userID), ID: videoID, Ts: ts, Limit: s.limit}, nil
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
	videos := make([]string, len(events))
	set := make(map[string]bool, len(events))
	for i, e := range events {
		videos[i] = e.VideoID
		set[e.VideoID] = true
	}
	return record{events: events, videos: videos, set: set}
}

// load fetches and decodes the user's record, through the cache when one is
// attached. A cache hit returns without building the loader closure.
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
