package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
	"vidrec/internal/vecmath"
)

// State is the subset of model parameters one SGD step touches: the acting
// user's vector and bias and the target video's vector and bias.
type State struct {
	UserVec  []float64
	UserBias float64
	ItemVec  []float64
	ItemBias float64
}

// Step applies one update of Algorithm 1 to s and returns the new state.
// The inputs are the global mean μ and the action's binary rating and
// confidence weight; the rule-specific learning rate (Eq. 8) and training
// target are derived from p. Step is pure: it never mutates its input
// vectors, so Compute's callers can safely hand the results to a different
// worker for storage.
func (p Params) Step(s State, mu, rating, weight float64) State {
	eta := p.LearningRate(weight)
	target := p.TrainingRating(rating, weight)
	// e_ui = r_ui − μ − b_u − b_i − x_uᵀ y_i   (Eq. 4)
	err := target - mu - s.UserBias - s.ItemBias - vecmath.Dot(s.UserVec, s.ItemVec)
	next := State{
		UserVec:  vecmath.Clone(s.UserVec),
		ItemVec:  vecmath.Clone(s.ItemVec),
		UserBias: vecmath.BiasStep(eta, err, p.Lambda, s.UserBias),
		ItemBias: vecmath.BiasStep(eta, err, p.Lambda, s.ItemBias),
	}
	// Both vectors move using the pre-update value of the other
	// (Algorithm 1 lines 13–14 read the old x_u, y_i).
	vecmath.SGDStep(eta, err, p.Lambda, next.UserVec, s.ItemVec)
	vecmath.SGDStep(eta, err, p.Lambda, next.ItemVec, s.UserVec)
	return next
}

// PredictState evaluates Eq. 2 for a (user, item) state pair under global
// mean mu.
func PredictState(s State, mu float64) float64 {
	return mu + s.UserBias + s.ItemBias + vecmath.Dot(s.UserVec, s.ItemVec)
}

// Stats counts the actions a model has seen, split by outcome.
type Stats struct {
	// Received counts every action handed to Compute.
	Received atomic.Uint64
	// Trained counts actions that produced a parameter update (rating 1,
	// finite step).
	Trained atomic.Uint64
	// Skipped counts actions with rating 0 (impressions).
	Skipped atomic.Uint64
	// NewUsers and NewItems count cold-start initializations.
	NewUsers atomic.Uint64
	NewItems atomic.Uint64
	// Diverged counts updates discarded because they produced non-finite
	// parameters (runaway learning rate, corrupt input). The previous
	// state is kept, so one bad action cannot poison the store.
	Diverged atomic.Uint64
}

// Model is the online MF model bound to a key-value store. Multiple models
// (the per-demographic-group models of §5.2.2) can share one store: each
// model namespaces its keys with its name.
//
// Model is safe for concurrent use, but two concurrent updates touching the
// same user or item can interleave their read-modify-write cycles; the
// production deployment avoids that by fields-grouping the action stream so
// each key has a single writer (§5.1). Within one process Model additionally
// relies on the store's per-key Update atomicity for the global-mean counter.
type Model struct {
	name   string
	store  kvstore.Store
	params Params
	stats  Stats
	cache  *objcache.Cache // nil disables the decoded-value read cache

	nsItemVec  string
	nsItemBias string
	keyMean    string

	// items, when non-nil, is the slot-indexed item table every scorer reads
	// (see items.go): StoreItem writes through to it, and ScoreSlots scores
	// from it. itemHook observes every stored item vector (the ANN index's
	// feed). Both are wired before traffic starts.
	items    *itemTable
	itemHook func(id string, vec []float64)

	// keyMemo interns the item-parameter store keys: they are pure functions
	// of the item id, and every item write and table miss composes them.
	// Item ids are catalog-bounded, so the memo is too. User keys memoize
	// separately in ukVec/ukBias — each entry is an order of magnitude
	// smaller than the user's stored vector under the same key, so the memo
	// tracks the store's own per-user growth.
	keyMu   sync.RWMutex
	keyMemo map[string]itemKeys // guarded by keyMu

	ukVec  *kvstore.Keys
	ukBias *kvstore.Keys

	// scorePool recycles the scorers' per-call working arrays.
	scorePool sync.Pool
}

// itemKeys is one item's store keys (vector and bias namespaces).
type itemKeys struct{ vec, bias string }

// itemKeysFor returns the item's memoized store keys, composing and
// remembering them on first sight.
func (m *Model) itemKeysFor(id string) itemKeys {
	m.keyMu.RLock()
	k, ok := m.keyMemo[id]
	m.keyMu.RUnlock()
	if ok {
		return k
	}
	k = itemKeys{
		vec:  kvstore.Key(m.nsItemVec, id),
		bias: kvstore.Key(m.nsItemBias, id),
	}
	m.keyMu.Lock()
	m.keyMemo[id] = k
	m.keyMu.Unlock()
	return k
}

// NewModel creates or reattaches a model named name on the given store.
func NewModel(name string, store kvstore.Store, p Params) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("core: model name must not be empty")
	}
	if store == nil {
		return nil, fmt.Errorf("core: store must not be nil")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		name:       name,
		store:      store,
		params:     p,
		nsItemVec:  name + ".iv",
		nsItemBias: name + ".ib",
		keyMean:    kvstore.Key(name+".meta", "mean"),
		keyMemo:    make(map[string]itemKeys),
		ukVec:      kvstore.NewKeys(name + ".uv"),
		ukBias:     kvstore.NewKeys(name + ".ub"),
	}, nil
}

// Name returns the model's namespace name.
func (m *Model) Name() string { return m.name }

// SetCache attaches a decoded-value read cache. The cache must wrap the same
// store via objcache.WrapStore (NewSystem does both), or writes would not
// invalidate it. Cached vectors are shared across callers and must be treated
// as read-only — every consumer either dots them in place or clones before
// mutating (Params.Step clones).
func (m *Model) SetCache(c *objcache.Cache) { m.cache = c }

// Params returns the model's hyper-parameters.
func (m *Model) Params() Params { return m.params }

// Stats exposes the model's action counters.
func (m *Model) Stats() *Stats { return &m.stats }

// initVector deterministically initializes a latent vector for a new entity.
// Components are pseudo-random in [-InitScale, InitScale]/√f, derived from
// FNV-64 hashes of (kind, id, dim): deterministic across runs and safe under
// concurrency without locks, unlike a shared rand.Source.
func (p Params) initVector(kind, id string) []float64 {
	if p.Factors <= 0 {
		// Degenerate config: zero factors has no components to initialize
		// (and Sqrt(0) below would make scale Inf), while a negative count
		// would panic in make. An empty vector is the only sane answer.
		return nil
	}
	v := make([]float64, p.Factors)
	scale := p.InitScale / math.Sqrt(float64(p.Factors))
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(id))
	base := h.Sum64()
	x := base
	for i := range v {
		// SplitMix64 finalizer over (base + dim) gives well-mixed bits.
		x = base + uint64(i)*0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		u := float64(z>>11) / float64(1<<53) // [0,1)
		v[i] = (2*u - 1) * scale
	}
	return v
}

// loadVector fetches and decodes the vector stored under the precomposed key
// through the cache (read-through; a nil cache goes straight to the store).
// The returned slice may be cache-shared: treat it as read-only. A cache hit
// returns without building the loader closure.
func (m *Model) loadVector(ctx context.Context, kind, key, id string) ([]float64, bool, error) {
	if m.cache != nil {
		if tv, present, ok := m.cache.Lookup(key); ok {
			if !present {
				return nil, false, nil
			}
			return tv.([]float64), true, nil
		}
	}
	return objcache.Cached(m.cache, key, func() ([]float64, bool, error) {
		b, ok, err := m.store.Get(ctx, key)
		if err != nil {
			return nil, false, fmt.Errorf("core: load %s vector %s: %w", kind, id, err)
		}
		if !ok {
			return nil, false, nil
		}
		v, err := kvstore.DecodeFloats(b)
		if err != nil {
			return nil, false, fmt.Errorf("core: decode %s vector %s: %w", kind, id, err)
		}
		return v, true, nil
	})
}

// userState loads (or cold-start initializes) the user's vector and bias.
// The returned bool reports whether the user was new.
func (m *Model) userState(ctx context.Context, id string) ([]float64, float64, bool, error) {
	vec, ok, err := m.loadVector(ctx, "user", m.ukVec.Key(id), id)
	if err != nil {
		return nil, 0, false, err
	}
	if !ok {
		return m.params.initVector("u", id), 0, true, nil
	}
	bias, err := m.loadBias(ctx, m.ukBias.Key(id))
	if err != nil {
		return nil, 0, false, err
	}
	return vec, bias, false, nil
}

// itemState loads (or cold-start initializes) the item's vector and bias.
// The returned bool reports whether the item was new. A float-form item
// table holds exactly the store's item parameters (StoreItem writes through
// to it), so the write path reads them there rather than through objcache.
func (m *Model) itemState(ctx context.Context, id string) ([]float64, float64, bool, error) {
	if t := m.items; t != nil && !t.q8 {
		rec, err := m.itemRecord(ctx, id)
		return rec.vec, rec.bias, rec.cold, err
	}
	ik := m.itemKeysFor(id)
	vec, ok, err := m.loadVector(ctx, "item", ik.vec, id)
	if err != nil {
		return nil, 0, false, err
	}
	if !ok {
		return m.params.initVector("i", id), 0, true, nil
	}
	bias, err := m.loadBias(ctx, ik.bias)
	if err != nil {
		return nil, 0, false, err
	}
	return vec, bias, false, nil
}

// loadBias fetches the bias stored under the precomposed key. A cache hit
// returns without building the loader closure.
func (m *Model) loadBias(ctx context.Context, key string) (float64, error) {
	if m.cache != nil {
		if tv, present, ok := m.cache.Lookup(key); ok {
			if !present {
				return 0, nil
			}
			return tv.(float64), nil
		}
	}
	v, ok, err := objcache.Cached(m.cache, key, func() (float64, bool, error) {
		b, ok, err := m.store.Get(ctx, key)
		if err != nil {
			return 0, false, fmt.Errorf("core: load bias %s: %w", key, err)
		}
		if !ok {
			return 0, false, nil
		}
		f, err := kvstore.DecodeFloat(b)
		if err != nil {
			return 0, false, fmt.Errorf("core: decode bias %s: %w", key, err)
		}
		return f, true, nil
	})
	if err != nil || !ok {
		return 0, err
	}
	return v, nil
}

// Load fetches the current state for a (user, item) pair, initializing
// vectors for entities not yet seen. newUser/newItem report cold starts.
func (m *Model) Load(ctx context.Context, userID, itemID string) (s State, newUser, newItem bool, err error) {
	s.UserVec, s.UserBias, newUser, err = m.userState(ctx, userID)
	if err != nil {
		return State{}, false, false, err
	}
	s.ItemVec, s.ItemBias, newItem, err = m.itemState(ctx, itemID)
	if err != nil {
		return State{}, false, false, err
	}
	return s, newUser, newItem, nil
}

// StoreState persists a (user, item) state pair — ProcessAction's write-back
// — as one batch of Sets (kvstore.Apply), so a remote store takes it in one
// round trip. The MFStorage bolt, which owns all writes for its key
// partition, receives the two halves as separate tuples and calls StoreUser /
// StoreItem.
func (m *Model) StoreState(ctx context.Context, userID, itemID string, s State) error {
	b := kvstore.AcquireBatch()
	defer b.Release()
	var rec itemRec
	b.Ops, rec = m.itemOps(m.userOps(b.Ops, userID, s.UserVec, s.UserBias), itemID, s.ItemVec, s.ItemBias)
	_, err := kvstore.Apply(ctx, m.store, b.Ops...)
	m.itemStored(itemID, s.ItemVec, rec, err)
	if err != nil {
		return fmt.Errorf("core: store state of user %s, item %s: %w", userID, itemID, err)
	}
	return nil
}

// userOps appends the Sets that persist one user's vector and bias.
func (m *Model) userOps(dst []kvstore.Op, id string, vec []float64, bias float64) []kvstore.Op {
	return append(dst,
		kvstore.Op{Kind: kvstore.OpSet, Key: m.ukVec.Key(id), Val: kvstore.EncodeFloats(vec)},
		kvstore.Op{Kind: kvstore.OpSet, Key: m.ukBias.Key(id), Val: kvstore.EncodeFloat(bias)})
}

// StoreUser persists one user's vector and bias.
func (m *Model) StoreUser(ctx context.Context, id string, vec []float64, bias float64) error {
	var buf [2]kvstore.Op
	for _, op := range m.userOps(buf[:0], id, vec, bias) {
		if err := m.store.Set(ctx, op.Key, op.Val); err != nil {
			return fmt.Errorf("core: store user %s record %s: %w", id, op.Key, err)
		}
	}
	return nil
}

// StoreItem persists one item's vector and bias, one Set at a time, and
// writes the new record through to the item table. When a write fails it
// drops the item's slot instead, so the next read re-resolves whatever the
// store now holds. The table keeps vec itself (Params.Step returns fresh
// clones), so callers must not mutate it afterwards. Last, StoreItem notifies
// the item-vector hook — the ANN index tracks the online model through
// exactly this call, whether the write came from Ingest or from a topology
// storage bolt.
func (m *Model) StoreItem(ctx context.Context, id string, vec []float64, bias float64) error {
	var buf [2]kvstore.Op
	ops, rec := m.itemOps(buf[:0], id, vec, bias)
	var err error
	for _, op := range ops {
		if err = m.store.Set(ctx, op.Key, op.Val); err != nil {
			err = fmt.Errorf("core: store item %s record %s: %w", id, op.Key, err)
			break
		}
	}
	m.itemStored(id, vec, rec, err)
	return err
}

// itemOps appends the Sets that persist one item's vector and bias, and
// returns the item-table record they amount to (the zero record for a model
// without a table).
func (m *Model) itemOps(dst []kvstore.Op, id string, vec []float64, bias float64) ([]kvstore.Op, itemRec) {
	ik := m.itemKeysFor(id)
	dst = append(dst,
		kvstore.Op{Kind: kvstore.OpSet, Key: ik.vec, Val: kvstore.EncodeFloats(vec)},
		kvstore.Op{Kind: kvstore.OpSet, Key: ik.bias, Val: kvstore.EncodeFloat(bias)})
	if m.items == nil {
		return dst, itemRec{}
	}
	return dst, m.items.record(vec, bias)
}

// itemStored follows an item's write: it installs rec in the item table and
// notifies the item-vector hook, or after a failed write (err != nil) drops
// the item's slot.
func (m *Model) itemStored(id string, vec []float64, rec itemRec, err error) {
	if err != nil {
		rec = itemRec{}
	}
	if t := m.items; t != nil {
		t.install(t.it.Slot(id), rec) // the zero record drops the slot
	}
	if err == nil && m.itemHook != nil {
		m.itemHook(id, vec)
	}
}

// globalMean returns μ. When TrackGlobalMean is off it is 0, reducing Eq. 2
// to the bias-plus-interaction form. The computed ratio is cached under the
// record's key; every MeanOp fold invalidates it.
func (m *Model) globalMean(ctx context.Context) (float64, error) {
	if !m.params.TrackGlobalMean {
		return 0, nil
	}
	if m.cache != nil {
		if tv, present, ok := m.cache.Lookup(m.keyMean); ok {
			if !present {
				return 0, nil
			}
			return tv.(float64), nil
		}
	}
	mu, ok, err := objcache.Cached(m.cache, m.keyMean, func() (float64, bool, error) {
		b, ok, err := m.store.Get(ctx, m.keyMean)
		if err != nil {
			return 0, false, fmt.Errorf("core: load global mean: %w", err)
		}
		if !ok {
			return 0, false, nil
		}
		vals, err := kvstore.DecodeFloats(b)
		if err != nil || len(vals) != 2 {
			return 0, false, fmt.Errorf("core: corrupt global mean record: %v", err)
		}
		if vals[1] == 0 {
			return 0, true, nil
		}
		return vals[0] / vals[1], true, nil
	})
	if err != nil || !ok {
		return 0, err
	}
	return mu, nil
}

// MeanOp returns the op that folds the action's training rating into the
// running global mean μ, or ok=false when the model does not track μ. μ
// tracks the mean of the ratings the model's rule actually regresses to
// (binary for Binary/Combine, the confidence weight for Conf), and 0 for an
// action without a rating, so the error term is centred identically across
// rules.
func (m *Model) MeanOp(a feedback.Action) (op kvstore.Op, ok bool) {
	if !m.params.TrackGlobalMean {
		return op, false
	}
	rating, weight := m.params.Weights.Confidence(a)
	observed := 0.0
	if rating > 0 {
		observed = m.params.TrainingRating(rating, weight)
	}
	return kvstore.Op{Kind: kvstore.OpMeanFold, Key: m.keyMean, Score: observed}, true
}

// GlobalMean returns the current μ (0 when tracking is disabled or nothing
// has been observed).
func (m *Model) GlobalMean(ctx context.Context) (float64, error) { return m.globalMean(ctx) }

// Compute runs Algorithm 1's arithmetic for one user action: fold r_ui into
// μ (MeanOp, one op the store executes), skip if r_ui = 0, otherwise load
// (or initialize) the touched entities and take one adjusted SGD step. It
// writes no vector: ok reports whether next is an update to store —
// ProcessAction stores it inline, the ComputeMF bolt hands it to MFStorage
// (§5.1 separates compute from storage so each key has a single writer).
func (m *Model) Compute(ctx context.Context, a feedback.Action) (next State, ok bool, err error) {
	if op, ok := m.MeanOp(a); ok {
		if _, err := kvstore.Apply(ctx, m.store, op); err != nil {
			return State{}, false, err
		}
	}
	return m.ComputeFolded(ctx, a)
}

// ComputeFolded is Compute for an action whose MeanOp the caller has already
// applied — Ingest folds every trained model's μ in one batch first.
func (m *Model) ComputeFolded(ctx context.Context, a feedback.Action) (next State, ok bool, err error) {
	m.stats.Received.Add(1)
	rating, weight := m.params.Weights.Confidence(a)
	if rating == 0 {
		m.stats.Skipped.Add(1)
		return State{}, false, nil
	}
	s, newUser, newItem, err := m.Load(ctx, a.UserID, a.VideoID)
	if err != nil {
		return State{}, false, err
	}
	if newUser {
		m.stats.NewUsers.Add(1)
	}
	if newItem {
		m.stats.NewItems.Add(1)
	}
	mu, err := m.globalMean(ctx)
	if err != nil {
		return State{}, false, err
	}
	next = m.params.Step(s, mu, rating, weight)
	if !StateFinite(next) {
		// Online training has no second chance to undo a written NaN:
		// every later read would propagate it. Drop the update instead.
		m.stats.Diverged.Add(1)
		return State{}, false, nil
	}
	m.stats.Trained.Add(1)
	return next, true, nil
}

// ProcessAction is Compute plus the write-back: it stores the new state and
// reports whether the model was updated.
func (m *Model) ProcessAction(ctx context.Context, a feedback.Action) (bool, error) {
	next, ok, err := m.Compute(ctx, a)
	if err != nil || !ok {
		return false, err
	}
	if err := m.StoreState(ctx, a.UserID, a.VideoID, next); err != nil {
		return false, err
	}
	return true, nil
}

// MaxParamMagnitude bounds any stored model parameter. Healthy online MF
// parameters live near the unit scale; values beyond this bound mean the
// optimization exploded, and even finite ones would overflow later inner
// products.
const MaxParamMagnitude = 1e8

// StateFinite reports whether every parameter in s is finite and within
// MaxParamMagnitude.
func StateFinite(s State) bool {
	ok := func(v float64) bool {
		return !math.IsNaN(v) && math.Abs(v) <= MaxParamMagnitude
	}
	if !ok(s.UserBias) || !ok(s.ItemBias) {
		return false
	}
	for _, v := range s.UserVec {
		if !ok(v) {
			return false
		}
	}
	for _, v := range s.ItemVec {
		if !ok(v) {
			return false
		}
	}
	return true
}

// Predict evaluates Eq. 2 for a (user, item) pair using stored state.
// Entities never seen before contribute their deterministic cold-start
// vectors, whose inner products are near zero — the prediction degrades to
// μ plus known biases, which is the desired cold-start behaviour.
func (m *Model) Predict(ctx context.Context, userID, itemID string) (float64, error) {
	s, _, _, err := m.Load(ctx, userID, itemID)
	if err != nil {
		return 0, err
	}
	mu, err := m.globalMean(ctx)
	if err != nil {
		return 0, err
	}
	return PredictState(s, mu), nil
}

// UserVector returns the user's latent vector and bias, reporting whether
// the user has been trained on (false ⇒ cold-start values).
func (m *Model) UserVector(ctx context.Context, id string) (vec []float64, bias float64, known bool, err error) {
	vec, bias, isNew, err := m.userState(ctx, id)
	return vec, bias, !isNew, err
}

// ItemVector returns the item's latent vector and bias, reporting whether
// the item has been trained on (false ⇒ cold-start values).
func (m *Model) ItemVector(ctx context.Context, id string) (vec []float64, bias float64, known bool, err error) {
	vec, bias, isNew, err := m.itemState(ctx, id)
	return vec, bias, !isNew, err
}

// ScoreCandidates evaluates Eq. 2 for one user against many candidate items
// with a single user-state load — the hot path of real-time recommendation
// generation (Fig. 1's "SORT&SELECT WITH User vector"). The result is a fresh
// slice parallel to items.
//
// A model with an item table resolves the items' slots in one interner pass
// and scores through ScoreSlots. A bare model (no interner) fetches every
// vector and bias in one combined MGet and decodes into a reused scratch
// buffer.
func (m *Model) ScoreCandidates(ctx context.Context, userID string, items []string) ([]float64, error) {
	scores := make([]float64, len(items))
	if m.items == nil {
		return m.scoreFromStore(ctx, userID, items, scores)
	}
	scr := m.scratch()
	defer m.scorePool.Put(scr)
	scr.slots = m.items.it.Slots(items, scr.slots[:0])
	return m.scoreSlots(ctx, userID, items, scr.slots, scores, scr)
}

// scoreFromStore is the bare model's scorer: it writes items' scores into
// scores (len(items) long) straight from one combined MGet.
func (m *Model) scoreFromStore(ctx context.Context, userID string, items []string, scores []float64) ([]float64, error) {
	uvec, ubias, _, err := m.userState(ctx, userID)
	if err != nil {
		return nil, err
	}
	mu, err := m.globalMean(ctx)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 2*len(items))
	for i, id := range items {
		ik := m.itemKeysFor(id)
		keys[i] = ik.vec
		keys[len(items)+i] = ik.bias
	}
	vals, err := m.store.MGet(ctx, keys)
	if err != nil {
		return nil, fmt.Errorf("core: batch load item params: %w", err)
	}
	var scratch []float64 // decode target reused across items; consumed by Dot before the next decode
	for i, id := range items {
		var ivec []float64
		if vb := vals[i]; vb != nil {
			scratch, err = kvstore.DecodeFloatsInto(scratch, vb)
			if err != nil {
				return nil, fmt.Errorf("core: decode item vector %s: %w", id, err)
			}
			ivec = scratch
		} else {
			ivec = m.params.initVector("i", id)
		}
		var ibias float64
		if bb := vals[len(items)+i]; bb != nil {
			ibias, err = kvstore.DecodeFloat(bb)
			if err != nil {
				return nil, fmt.Errorf("core: decode item bias %s: %w", id, err)
			}
		}
		scores[i] = mu + ubias + ibias + vecmath.Dot(uvec, ivec)
	}
	return scores, nil
}
