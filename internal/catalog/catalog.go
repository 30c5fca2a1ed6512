// Package catalog stores video metadata: the fine-grained type every video
// carries in Tencent Video's category system (§4.2.2) and the full video
// length that PlayTime weighting needs (Eq. 6).
//
// Like all pipeline state, the catalog lives in the shared key-value store
// so every topology worker and the recommendation service see one copy.
package catalog

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
)

// Video is one catalog record.
type Video struct {
	// ID is the site-wide video identifier.
	ID string
	// Type is the fine-grained category ("movie.action", "news.sports",
	// ...). Type equality defines the type similarity of Eq. 10.
	Type string
	// Length is the full duration of the video.
	Length time.Duration
}

// Catalog is a kvstore-backed video metadata table.
type Catalog struct {
	kv    kvstore.Store
	keys  *kvstore.Keys   // memoized ns-qualified keys (catalog-bounded)
	cache *objcache.Cache // nil disables the decoded-record read cache
}

// SetCache attaches a decoded-value read cache for catalog records. The
// cache must wrap the same store via objcache.WrapStore so Put invalidates
// it. Records are small value structs, returned by value — no aliasing.
func (c *Catalog) SetCache(cc *objcache.Cache) { c.cache = cc }

// New returns a catalog stored under the given namespace.
func New(name string, kv kvstore.Store) (*Catalog, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("catalog: store must not be nil")
	}
	return &Catalog{kv: kv, keys: kvstore.NewKeys(name + ".video")}, nil
}

// Put inserts or replaces a video record.
func (c *Catalog) Put(ctx context.Context, v Video) error {
	if v.ID == "" {
		return fmt.Errorf("catalog: video id must not be empty")
	}
	enc := kvstore.EncodeStrings([]string{v.Type, strconv.FormatInt(int64(v.Length/time.Millisecond), 10)})
	if err := c.kv.Set(ctx, c.keys.Key(v.ID), enc); err != nil {
		return fmt.Errorf("catalog: put %s: %w", v.ID, err)
	}
	return nil
}

// Get fetches a video record, reporting whether it exists. A cache hit
// returns without building the loader closure.
func (c *Catalog) Get(ctx context.Context, id string) (Video, bool, error) {
	key := c.keys.Key(id)
	if c.cache != nil {
		if tv, present, ok := c.cache.Lookup(key); ok {
			if !present {
				return Video{}, false, nil
			}
			return tv.(Video), true, nil
		}
	}
	return objcache.Cached(c.cache, key, func() (Video, bool, error) {
		raw, ok, err := c.kv.Get(ctx, key)
		if err != nil {
			return Video{}, false, fmt.Errorf("catalog: get %s: %w", id, err)
		}
		if !ok {
			return Video{}, false, nil
		}
		fields, err := kvstore.DecodeStrings(raw)
		if err != nil || len(fields) != 2 {
			return Video{}, false, fmt.Errorf("catalog: corrupt record for %s: %v", id, err)
		}
		ms, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return Video{}, false, fmt.Errorf("catalog: corrupt length for %s: %w", id, err)
		}
		return Video{ID: id, Type: fields[0], Length: time.Duration(ms) * time.Millisecond}, true, nil
	})
}

// Type returns the video's category, or "" when the video is unknown —
// unknown types never match anything under Eq. 10, which is the right
// cold-start behaviour.
func (c *Catalog) Type(ctx context.Context, id string) (string, error) {
	v, ok, err := c.Get(ctx, id)
	if err != nil || !ok {
		return "", err
	}
	return v.Type, nil
}
