package demographic

import (
	"context"
	"fmt"
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
	"vidrec/internal/topn"
)

// HotTracker maintains per-group hot-video lists: exponentially decayed
// popularity counters, bounded to the top N videos per group. It implements
// the demographic-based (DB) algorithm of §5.2.1 — "we compute the hot
// videos for each demographic group" — and, applied to the global group,
// doubles as the Hot baseline of the online experiments (§6.2).
//
// Decay uses the same normalize-to-last-update scheme as the similar-video
// tables: every write first decays all counters to the write's timestamp, so
// reads only apply one shared residual factor and never reorder entries.
type HotTracker struct {
	kv       kvstore.Store
	ns       string
	keys     *kvstore.Keys // memoized ns-qualified keys (group-bounded)
	halfLife time.Duration
	size     int
	floor    float64
	cache    *objcache.Cache // nil disables the decoded-record read cache
}

// SetCache attaches a decoded-value read cache for hot records. The cache
// must wrap the same store via objcache.WrapStore so Record invalidates it.
func (h *HotTracker) SetCache(c *objcache.Cache) { h.cache = c }

// hotRecord is the decoded form of one group's stored hot list. Cached
// records are shared and read-only; Hot copies entries into a fresh output
// slice when applying the residual decay.
type hotRecord struct {
	updatedAt time.Time
	entries   []topn.Entry
}

// NewHotTracker returns a tracker whose counters halve every halfLife and
// whose per-group lists keep at most size videos.
func NewHotTracker(name string, kv kvstore.Store, halfLife time.Duration, size int) (*HotTracker, error) {
	if name == "" {
		return nil, fmt.Errorf("demographic: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("demographic: store must not be nil")
	}
	if halfLife <= 0 {
		return nil, fmt.Errorf("demographic: half-life must be positive, got %v", halfLife)
	}
	if size <= 0 {
		return nil, fmt.Errorf("demographic: size must be positive, got %d", size)
	}
	ns := name + ".hot"
	return &HotTracker{kv: kv, ns: ns, keys: kvstore.NewKeys(ns), halfLife: halfLife, size: size, floor: 1e-6}, nil
}

func (h *HotTracker) damp(age time.Duration) float64 { return kvstore.Damp(age, h.halfLife) }

// Record adds weight to a video's popularity in the group at time ts.
// Weight is the action's confidence w_ui, so a full watch heats a video more
// than a bare click. The rewrite is one op the store executes (RecordOp).
func (h *HotTracker) Record(ctx context.Context, group, videoID string, weight float64, ts time.Time) error {
	op, ok, err := h.RecordOp(group, videoID, weight, ts)
	if err != nil || !ok {
		return err
	}
	_, err = kvstore.Apply(ctx, h.kv, op)
	return err
}

// RecordOp returns Record's rewrite as an op, for a caller that batches it
// with other writes (kvstore.Apply): every counter in the group's list is
// decayed to ts and weight is added to the video's. ok is false when there is
// nothing to record — impressions carry no popularity signal.
func (h *HotTracker) RecordOp(group, videoID string, weight float64, ts time.Time) (op kvstore.Op, ok bool, err error) {
	if group == "" || videoID == "" {
		return op, false, fmt.Errorf("demographic: group and video ids must not be empty")
	}
	if weight <= 0 {
		return op, false, nil
	}
	return kvstore.Op{Kind: kvstore.OpHot, Key: h.keys.Key(group), ID: videoID, Score: weight, Ts: ts,
		Limit: h.size, HalfLife: h.halfLife, Floor: h.floor}, true, nil
}

// Hot returns up to k hot videos for the group at time now, hottest first.
// The decoded record is read through the cache; every Record write to the
// group invalidates it.
func (h *HotTracker) Hot(ctx context.Context, group string, k int, now time.Time) ([]topn.Entry, error) {
	return h.HotInto(ctx, group, k, now, nil)
}

// HotInto is Hot appending into dst (reused when it has capacity) — the
// serving path passes pooled scratch so a warm request's hot-list read
// allocates nothing. A cache hit never builds a loader closure; only misses
// take the read-through path.
func (h *HotTracker) HotInto(ctx context.Context, group string, k int, now time.Time, dst []topn.Entry) ([]topn.Entry, error) {
	key := h.keys.Key(group)
	var rec hotRecord
	if h.cache != nil {
		if tv, present, ok := h.cache.Lookup(key); ok {
			if !present {
				return dst[:0], nil
			}
			rec = tv.(hotRecord)
			return h.appendDamped(rec, k, now, dst[:0]), nil
		}
	}
	rec, ok, err := objcache.Cached(h.cache, key, func() (hotRecord, bool, error) {
		raw, ok, err := h.kv.Get(ctx, key)
		if err != nil {
			return hotRecord{}, false, fmt.Errorf("demographic: get hot %s: %w", group, err)
		}
		if !ok || len(raw) < 8 {
			return hotRecord{}, false, nil
		}
		ms, err := kvstore.DecodeInt64(raw[:8])
		if err != nil {
			return hotRecord{}, false, fmt.Errorf("demographic: corrupt hot record for %s: %w", group, err)
		}
		entries, err := kvstore.DecodeEntries(raw[8:])
		if err != nil {
			return hotRecord{}, false, fmt.Errorf("demographic: corrupt hot entries for %s: %w", group, err)
		}
		return hotRecord{updatedAt: time.UnixMilli(ms), entries: entries}, true, nil
	})
	if err != nil || !ok {
		return dst[:0], err
	}
	return h.appendDamped(rec, k, now, dst[:0]), nil
}

// appendDamped appends up to k of rec's entries onto dst with the residual
// decay applied, stopping at the floor. The cached record stays immutable;
// the damped copies land in the caller's slice.
func (h *HotTracker) appendDamped(rec hotRecord, k int, now time.Time, dst []topn.Entry) []topn.Entry {
	factor := h.damp(now.Sub(rec.updatedAt))
	if factor > 1 {
		factor = 1
	}
	taken := 0
	for _, e := range rec.entries {
		if taken == k {
			break
		}
		if v := e.Score * factor; v >= h.floor {
			dst = append(dst, topn.Entry{ID: e.ID, Score: v})
			taken++
		}
	}
	return dst
}
