// Package simtable builds and serves the similar-video tables of §4.2: for
// every video, a bounded list of the videos a user is most likely to watch
// next, ranked by a fused similarity of three factors —
//
//	collaborative-filtering similarity  s1_ij = y_iᵀ y_j        (Eq. 9)
//	type similarity                     s2_ij ∈ {0, 1}          (Eq. 10)
//	time factor                         d_ij  = 2^(−Δt/ξ)       (Eq. 11)
//	fused                               sim_ij = d_ij·((1−β)·s1_ij + β·s2_ij)   (Eq. 12)
//
// Tables are updated incrementally: a pair (i, j) is recomputed only when a
// new user action touches i or j (the GetItemPairs / ItemPairSim /
// ResultStorage bolts of Fig. 2), resetting its damping clock; untouched
// pairs decay and are eventually forgotten.
//
// Decay is implemented without per-entry clocks by keeping each video's list
// normalized to its last update instant: every write first decays all stored
// scores to "now", so afterwards every entry decays at the same rate and the
// stored order remains the true order at any future read time. Reads apply
// the residual decay (now − listUpdatedAt), which scales all entries equally
// and therefore never reorders them.
package simtable

import (
	"context"
	"fmt"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
	"vidrec/internal/topn"
	"vidrec/internal/vecmath"
)

// Config holds the similarity-fusion parameters of Eq. 11–12.
type Config struct {
	// Beta is the weight β of type similarity in the fusion (Eq. 12);
	// 1−β weights the CF similarity. Table 2's grid search selects a
	// modest β — CF similarity dominates, type acts as a tiebreaker.
	Beta float64
	// Xi is the decay parameter ξ of Eq. 11: a pair untouched for Xi
	// halves its similarity.
	Xi time.Duration
	// TableSize bounds each video's similar list (top-N).
	TableSize int
	// ScoreFloor prunes entries whose decayed score falls below it; fully
	// forgotten pairs should not occupy table space forever.
	ScoreFloor float64
}

// DefaultConfig returns the production-shaped parameters: β=0.3, ξ=24h,
// 50-entry tables.
func DefaultConfig() Config {
	return Config{Beta: 0.3, Xi: 24 * time.Hour, TableSize: 50, ScoreFloor: 1e-6}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("simtable: Beta must be in [0,1], got %v", c.Beta)
	}
	if c.Xi <= 0 {
		return fmt.Errorf("simtable: Xi must be positive, got %v", c.Xi)
	}
	if c.TableSize <= 0 {
		return fmt.Errorf("simtable: TableSize must be positive, got %d", c.TableSize)
	}
	if c.ScoreFloor < 0 {
		return fmt.Errorf("simtable: ScoreFloor must be non-negative, got %v", c.ScoreFloor)
	}
	return nil
}

// Damp evaluates the time factor of Eq. 11 for a pair last updated age ago.
// A non-positive Xi (a Config that skipped Validate) yields 0 — the pair is
// treated as fully forgotten — rather than a NaN that would poison every
// decayed score downstream.
func (c Config) Damp(age time.Duration) float64 { return kvstore.Damp(age, c.Xi) }

// Fuse combines the CF and type similarities per Eq. 12 (without the time
// factor, which Damp supplies).
func (c Config) Fuse(cfSim, typeSim float64) float64 {
	return (1-c.Beta)*cfSim + c.Beta*typeSim
}

// TypeSimilarity evaluates Eq. 10 for two category labels: 1 when equal and
// known, else 0.
func TypeSimilarity(a, b string) float64 {
	if a != "" && a == b {
		return 1
	}
	return 0
}

// CFSimilarity evaluates Eq. 9 — the inner product of the two videos' latent
// vectors under the given MF model. Videos the model has not trained on
// contribute their cold-start vectors, whose products are effectively zero.
func CFSimilarity(ctx context.Context, m *core.Model, i, j string) (float64, error) {
	yi, _, _, err := m.ItemVector(ctx, i)
	if err != nil {
		return 0, err
	}
	yj, _, _, err := m.ItemVector(ctx, j)
	if err != nil {
		return 0, err
	}
	return vecmath.Dot(yi, yj), nil
}

// Tables is the kvstore-backed similar-video table set.
type Tables struct {
	kv    kvstore.Store
	ns    string
	keys  *kvstore.Keys // memoized ns-qualified keys (video-id-bounded)
	cfg   Config
	cache *objcache.Cache // nil disables the decoded-table read cache
}

// SetCache attaches a decoded-value read cache for table records. The cache
// must wrap the same store via objcache.WrapStore so UpdateDirected writes
// invalidate it. Cached tables are shared and read-only; Similar already
// copies entries into a fresh output slice when applying residual decay.
func (t *Tables) SetCache(c *objcache.Cache) { t.cache = c }

// New returns tables stored under the given namespace.
func New(name string, kv kvstore.Store, cfg Config) (*Tables, error) {
	if name == "" {
		return nil, fmt.Errorf("simtable: name must not be empty")
	}
	if kv == nil {
		return nil, fmt.Errorf("simtable: store must not be nil")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := name + ".sim"
	return &Tables{kv: kv, ns: ns, keys: kvstore.NewKeys(ns), cfg: cfg}, nil
}

// Config returns the table configuration.
func (t *Tables) Config() Config { return t.cfg }

// table is the stored form of one video's similar list.
type table struct {
	updatedAt time.Time
	entries   []topn.Entry
}

func decodeTable(raw []byte) (table, error) {
	if len(raw) < 8 {
		return table{}, fmt.Errorf("simtable: truncated table record")
	}
	ms, err := kvstore.DecodeInt64(raw[:8])
	if err != nil {
		return table{}, err
	}
	entries, err := kvstore.DecodeEntries(raw[8:])
	if err != nil {
		return table{}, err
	}
	return table{updatedAt: time.UnixMilli(ms), entries: entries}, nil
}

// UpdateDirected records a freshly computed (undamped) similarity score for
// the pair (owner, other) in owner's list at time ts. Existing entries are
// first decayed to ts (resetting the list's clock), the pair's entry is
// replaced with the fresh score (its damping clock restarts, d=1), and
// entries decayed below the floor are pruned.
//
// The rewrite is one op the store executes (DirectedOp), atomic per key on
// every store configuration; the topology additionally emits each pair in
// both directions, fields-grouped by owner, so each list has a single writer.
func (t *Tables) UpdateDirected(ctx context.Context, owner, other string, score float64, ts time.Time) error {
	op, err := t.DirectedOp(owner, other, score, ts)
	if err != nil {
		return err
	}
	_, err = kvstore.Apply(ctx, t.kv, op)
	return err
}

// DirectedOp returns UpdateDirected's rewrite as an op, for a caller that
// batches it with other writes (kvstore.Apply).
func (t *Tables) DirectedOp(owner, other string, score float64, ts time.Time) (kvstore.Op, error) {
	if owner == other {
		return kvstore.Op{}, fmt.Errorf("simtable: self-pair %q", owner)
	}
	return kvstore.Op{Kind: kvstore.OpSimilar, Key: t.keys.Key(owner), ID: other, Score: score, Ts: ts,
		Limit: t.cfg.TableSize, HalfLife: t.cfg.Xi, Floor: t.cfg.ScoreFloor}, nil
}

// loadTable reads and decodes one video's table record through the cache
// (read-through; nil cache goes straight to the store). The returned table's
// entries may be cache-shared: read-only.
func (t *Tables) loadTable(ctx context.Context, video string) (table, bool, error) {
	key := t.keys.Key(video)
	return objcache.Cached(t.cache, key, func() (table, bool, error) {
		raw, ok, err := t.kv.Get(ctx, key)
		if err != nil {
			return table{}, false, fmt.Errorf("simtable: get %s: %w", video, err)
		}
		if !ok {
			return table{}, false, nil
		}
		tb, err := decodeTable(raw)
		if err != nil {
			return table{}, false, fmt.Errorf("simtable: corrupt table for %s: %w", video, err)
		}
		return tb, true, nil
	})
}

// truncateDecayed copies up to k entries of tb into a fresh slice with scores
// decayed to now, stopping at the floor (entries are sorted, so the rest are
// below it too).
func (t *Tables) truncateDecayed(tb table, k int, now time.Time) []topn.Entry {
	factor := t.cfg.Damp(now.Sub(tb.updatedAt))
	if factor > 1 {
		factor = 1
	}
	// Damped copy-out keeps cached tables immutable.
	out := make([]topn.Entry, 0, min(k, len(tb.entries)))
	for _, e := range tb.entries {
		if len(out) == k {
			break
		}
		decayed := e.Score * factor
		if decayed < t.cfg.ScoreFloor {
			break
		}
		out = append(out, topn.Entry{ID: e.ID, Score: decayed})
	}
	return out
}

// Similar returns up to k similar videos for the given video with scores
// decayed to now, best first. A video with no table yields an empty list.
func (t *Tables) Similar(ctx context.Context, video string, k int, now time.Time) ([]topn.Entry, error) {
	tb, ok, err := t.loadTable(ctx, video)
	if err != nil || !ok {
		return nil, err
	}
	return t.truncateDecayed(tb, k, now), nil
}

// SimilarBatch returns Similar's result for every video in one store round
// trip: cached tables are served from memory and all misses share a single
// MGet (versions captured first, so a concurrent UpdateDirected can never
// install a stale decode). The result is parallel to videos; videos without
// a table yield nil entries.
func (t *Tables) SimilarBatch(ctx context.Context, videos []string, k int, now time.Time) ([][]topn.Entry, error) {
	out := make([][]topn.Entry, len(videos))
	if t.cache == nil {
		keys := make([]string, len(videos))
		for i, v := range videos {
			keys[i] = t.keys.Key(v)
		}
		vals, err := t.kv.MGet(ctx, keys)
		if err != nil {
			return nil, fmt.Errorf("simtable: batch get tables: %w", err)
		}
		for i, raw := range vals {
			if raw == nil {
				continue
			}
			tb, err := decodeTable(raw)
			if err != nil {
				return nil, fmt.Errorf("simtable: corrupt table for %s: %w", videos[i], err)
			}
			out[i] = t.truncateDecayed(tb, k, now)
		}
		return out, nil
	}
	var missKeys []string
	var missVers []uint64
	var missIdx []int
	for i, v := range videos {
		key := t.keys.Key(v)
		if tv, present, ok := t.cache.Lookup(key); ok {
			if present {
				out[i] = t.truncateDecayed(tv.(table), k, now)
			}
			continue
		}
		missVers = append(missVers, t.cache.Version(key))
		missKeys = append(missKeys, key)
		missIdx = append(missIdx, i)
	}
	if len(missKeys) == 0 {
		return out, nil
	}
	vals, err := t.kv.MGet(ctx, missKeys)
	if err != nil {
		return nil, fmt.Errorf("simtable: batch get tables: %w", err)
	}
	for j, raw := range vals {
		i := missIdx[j]
		if raw == nil {
			t.cache.StoreIfUnchanged(missKeys[j], table{}, false, missVers[j])
			continue
		}
		tb, err := decodeTable(raw)
		if err != nil {
			return nil, fmt.Errorf("simtable: corrupt table for %s: %w", videos[i], err)
		}
		t.cache.StoreIfUnchanged(missKeys[j], tb, true, missVers[j])
		out[i] = t.truncateDecayed(tb, k, now)
	}
	return out, nil
}

// appendDecayedIDs appends the ids of up to k entries of tb onto dst,
// stopping at the score floor after decaying to now (entries are sorted, so
// the rest are below it too) — truncateDecayed without materializing the
// damped copy, for callers that only need the ids.
func (t *Tables) appendDecayedIDs(tb table, k int, now time.Time, dst []string) []string {
	factor := t.cfg.Damp(now.Sub(tb.updatedAt))
	if factor > 1 {
		factor = 1
	}
	taken := 0
	for _, e := range tb.entries {
		if taken == k || e.Score*factor < t.cfg.ScoreFloor {
			break
		}
		dst = append(dst, e.ID)
		taken++
	}
	return dst
}

// SimilarIDs appends, for each seed video in order, the ids of up to k
// similar videos decayed to now (best first, floor-truncated) onto dst and
// returns it — SimilarBatch for callers that only need the ids, without the
// per-seed result slices or the damped entry copies. With every table cached
// the call allocates nothing beyond dst's amortized growth; any cache miss
// falls back to SimilarBatch so the store round trip stays batched and the
// decoded tables are installed for the next request.
func (t *Tables) SimilarIDs(ctx context.Context, videos []string, k int, now time.Time, dst []string) ([]string, error) {
	if t.cache != nil {
		allHit := true
		for _, v := range videos {
			tv, present, ok := t.cache.Lookup(t.keys.Key(v))
			if !ok {
				allHit = false
				break
			}
			if present {
				dst = t.appendDecayedIDs(tv.(table), k, now, dst)
			}
		}
		if allHit {
			return dst, nil
		}
		dst = dst[:0]
	}
	lists, err := t.SimilarBatch(ctx, videos, k, now)
	if err != nil {
		return nil, err
	}
	for _, similar := range lists {
		for _, e := range similar {
			dst = append(dst, e.ID)
		}
	}
	return dst, nil
}

// PairScore computes the undamped fused similarity for (i, j) from the MF
// model's item vectors and the catalog's types — the work of the ItemPairSim
// bolt for one pair.
func (t *Tables) PairScore(ctx context.Context, m *core.Model, cat *catalog.Catalog, i, j string) (float64, error) {
	cf, err := CFSimilarity(ctx, m, i, j)
	if err != nil {
		return 0, err
	}
	ti, err := cat.Type(ctx, i)
	if err != nil {
		return 0, err
	}
	tj, err := cat.Type(ctx, j)
	if err != nil {
		return 0, err
	}
	return t.cfg.Fuse(cf, TypeSimilarity(ti, tj)), nil
}

// Pairs lists the item pairs a new action generates: the acted-on video
// against each of the user's recent distinct videos (the GetItemPairs bolt).
// Self-pairs are skipped.
func Pairs(videoID string, recent []string) [][2]string {
	out := make([][2]string, 0, len(recent))
	for _, r := range recent {
		if r == videoID {
			continue
		}
		out = append(out, [2]string{videoID, r})
	}
	return out
}
