// Package recommend implements real-time top-N recommendation generation
// (§4.1, Figure 1): receive a request, pick seed videos (the video being
// watched, or the user's recent history), expand seeds into candidates
// through the similar-video tables, score candidates with the MF model
// (Eq. 2), and rank — with the demographic-filtering merge of §5.2.1
// broadening the list and covering cold-start users.
//
// The package also owns the write path (steps.go): each Figure 2 training
// step is one System method. System.Ingest runs them inline — offline
// experiments train without stream-processing overhead — and the topology
// package's bolts run the same methods one per bolt; internal/sim's
// TestSyncTopologyEqualsIngest pins the two to byte-identical stored state.
package recommend

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vidrec/internal/ann"
	"vidrec/internal/bandit"
	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
	"vidrec/internal/history"
	"vidrec/internal/intern"
	"vidrec/internal/kvstore"
	"vidrec/internal/metrics"
	"vidrec/internal/objcache"
	"vidrec/internal/simtable"
)

// Options configure the recommendation pipeline. Two behaviours have no
// switch: a registered user's action trains their demographic group's model
// and similar tables beside the global ones (§5.2.2), and a request whose
// personalized path fails on storage errors is served the group's hot list
// instead, marked Result.Degraded.
type Options struct {
	// SeedCount is how many recent history videos seed candidate expansion
	// when no current video is given ("Guess you like").
	SeedCount int
	// CandidatesPerSeed bounds the similar videos fetched per seed.
	CandidatesPerSeed int
	// MaxCandidates bounds the total candidate set — the paper's key
	// real-time constraint: never score the whole video corpus.
	MaxCandidates int
	// HotShare is the fraction of each list reserved for demographic hot
	// videos (§5.2.1's diversity merge); hot videos also fill any slots
	// the MF path cannot, which is the whole list for brand-new users.
	HotShare float64
	// HistoryLimit bounds stored per-user history.
	HistoryLimit int
	// PairWindow is how many recent history videos pair with each new
	// action for similar-table updates (the GetItemPairs bolt).
	PairWindow int
	// DemographicFiltering enables the hot-video merge (§5.2.1).
	DemographicFiltering bool
	// HotHalfLife is the popularity decay of the demographic hot lists.
	HotHalfLife time.Duration
	// HotCapacity bounds each group's hot list.
	HotCapacity int
	// CacheCapacity sizes the decoded-value read cache every component
	// reads through (objcache): 0 selects objcache.DefaultCapacity,
	// negative disables the cache entirely. Disabling never changes
	// results — write-through invalidation keeps cached reads coherent —
	// only latency.
	CacheCapacity int
	// Explore draws the slate through a bandit policy over the blended
	// candidate sources (MF rank, sim-table expansion, demographic hot, ANN
	// probe), records per-arm pulls and slate attributions, and feeds implicit
	// rewards back into the policy's posteriors — the paper title's
	// exploration, as an online-matching bandit. Degraded responses never
	// explore: the fallback path serves exactly as before.
	Explore bool
	// ExploreSeed seeds the policy's RNG. Equal seeds over equal reward
	// histories replay identical explored slates — the determinism contract
	// the golden explored slate and the sim digests pin.
	ExploreSeed uint64
	// Quantized serves Eq. 2 scores from int8-quantized item records
	// (core.Model's item table in its int8 form) instead of float64 vectors:
	// the table quantizes each item's stored float parameters on publish and
	// on a miss, and scoring runs integer dot products over it. It is
	// serve-only: the store's contents do not change. The eval tier pins the
	// recall cost of the quantization at ≤ 2%.
	Quantized bool
	// ANN adds a third candidate source beside the similar-table expansion
	// and the hot list: a random-hyperplane LSH index over the global
	// model's item factor vectors, maintained incrementally on every item
	// publish and probed with the user's global factor vector. Explored
	// slates expose it as the "ann" bandit arm.
	ANN bool
	// ANNSeed derives the LSH index's hyperplanes deterministically; the
	// index takes ann's default size.
	ANNSeed uint64
}

// DefaultOptions returns production-shaped settings.
func DefaultOptions() Options {
	return Options{
		SeedCount:         5,
		CandidatesPerSeed: 20,
		MaxCandidates:     200,
		HotShare:          0.2,
		// HistoryLimit doubles as the re-recommendation dedup window;
		// keep it deep enough that active users don't get re-served
		// videos they watched earlier in the week.
		HistoryLimit:         200,
		PairWindow:           8,
		DemographicFiltering: true,
		HotHalfLife:          24 * time.Hour,
		HotCapacity:          100,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	switch {
	case o.SeedCount <= 0:
		return fmt.Errorf("recommend: SeedCount must be positive, got %d", o.SeedCount)
	case o.CandidatesPerSeed <= 0:
		return fmt.Errorf("recommend: CandidatesPerSeed must be positive, got %d", o.CandidatesPerSeed)
	case o.MaxCandidates <= 0:
		return fmt.Errorf("recommend: MaxCandidates must be positive, got %d", o.MaxCandidates)
	case o.HotShare < 0 || o.HotShare > 1:
		return fmt.Errorf("recommend: HotShare must be in [0,1], got %v", o.HotShare)
	case o.HistoryLimit <= 0:
		return fmt.Errorf("recommend: HistoryLimit must be positive, got %d", o.HistoryLimit)
	case o.PairWindow <= 0:
		return fmt.Errorf("recommend: PairWindow must be positive, got %d", o.PairWindow)
	case o.HotHalfLife <= 0:
		return fmt.Errorf("recommend: HotHalfLife must be positive, got %v", o.HotHalfLife)
	case o.HotCapacity <= 0:
		return fmt.Errorf("recommend: HotCapacity must be positive, got %d", o.HotCapacity)
	}
	return nil
}

// System bundles every pipeline component over one shared key-value store.
type System struct {
	kv       kvstore.Store
	opts     Options
	weights  feedback.Weights
	Catalog  *catalog.Catalog
	Profiles *demographic.Profiles
	History  *history.Store
	Models   *demographic.ModelSet
	Tables   *demographic.TableSet
	Hot      *demographic.HotTracker
	// Bandit persists the exploration layer's reward state and slate
	// attributions. Always constructed; only an Options.Explore system
	// writes to it.
	Bandit *bandit.Store
	// Latency records end-to-end serving latencies for every Recommend
	// call (the paper's milliseconds-latency production claim is a tail
	// statement; see metrics.Histogram).
	Latency metrics.Histogram

	// policy is the bandit policy re-ranking slates (nil unless
	// Options.Explore). policyMu serializes its RNG: one slate's picks are
	// an atomic run of draws, so concurrent serving stays valid and
	// serialized serving stays byte-deterministic.
	policy   bandit.Policy
	policyMu sync.Mutex

	// cache is the decoded-value read cache shared by every component
	// (nil when Options.CacheCapacity < 0). kv is wrapped so all writes
	// invalidate it.
	cache *objcache.Cache

	// interner maps item ids to dense int32 slots shared by the serving
	// scratch (mark arrays), the models' item tables, and the ANN index —
	// one string-hash per id per batch instead of per structure.
	interner *intern.Table
	// annIndex is the LSH candidate source (nil unless Options.ANN). It is
	// fed by the global model's item-vector hook, so it tracks every item
	// publish — Ingest's and the topology's alike.
	annIndex *ann.Index
	// global is the global-group model, resolved eagerly: the ANN probe
	// uses its user vectors, and wiring its hook must precede traffic.
	global *core.Model

	// scratch recycles per-request serving buffers (*serveScratch); see
	// Recommend. A pooled scratch is owned by exactly one request at a time.
	scratch sync.Pool

	clock func() time.Time
	// streamNow is the latest ingested action timestamp in Unix nanoseconds
	// (0 before the first action): an atomic max, advanced by Observe on both
	// write paths and read by concurrent Recommend calls through Now.
	streamNow atomic.Int64
	// wallClock times Recommend calls for the Latency histogram. Unlike
	// clock (the model's notion of "now", which follows the replayed
	// stream), wallClock measures real serving work; the simulation harness
	// swaps in a virtual clock so latency accounting is deterministic.
	wallClock func() time.Time
}

// NewSystem assembles a recommendation system on the given store. Unless
// Options.CacheCapacity is negative, the store is wrapped with a decoded-value
// read cache (objcache.WrapStore) before any component sees it, so every
// write path — ingest, topology bolts, direct component calls — invalidates
// the cache and reads stay coherent.
func NewSystem(kv kvstore.Store, params core.Params, simCfg simtable.Config, opts Options) (*System, error) {
	if kv == nil {
		return nil, fmt.Errorf("recommend: store must not be nil")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var cache *objcache.Cache
	if opts.CacheCapacity >= 0 {
		cache = objcache.New(opts.CacheCapacity)
		kv = objcache.WrapStore(kv, cache)
	}
	cat, err := catalog.New("sys", kv)
	if err != nil {
		return nil, err
	}
	profiles, err := demographic.NewProfiles("sys", kv)
	if err != nil {
		return nil, err
	}
	hist, err := history.New("sys", kv, opts.HistoryLimit)
	if err != nil {
		return nil, err
	}
	models, err := demographic.NewModelSet("sys", kv, params)
	if err != nil {
		return nil, err
	}
	tables, err := demographic.NewTableSet("sys", kv, simCfg)
	if err != nil {
		return nil, err
	}
	hot, err := demographic.NewHotTracker("sys", kv, opts.HotHalfLife, opts.HotCapacity)
	if err != nil {
		return nil, err
	}
	bd, err := bandit.New("sys", kv)
	if err != nil {
		return nil, err
	}
	cat.SetCache(cache)
	profiles.SetCache(cache)
	hist.SetCache(cache)
	models.SetCache(cache)
	tables.SetCache(cache)
	hot.SetCache(cache)
	bd.SetCache(cache)
	interner := intern.New()
	models.SetInterner(interner)
	if opts.Quantized {
		models.EnableQuantized(interner)
	}
	// The global model is resolved eagerly: its item-vector hook (the ANN
	// feed) and item table must exist before the first write, whether that
	// write comes from Ingest or a topology bolt.
	global, err := models.For(demographic.GlobalGroup)
	if err != nil {
		return nil, err
	}
	var annIndex *ann.Index
	if opts.ANN {
		annIndex, err = ann.New(ann.Config{Dims: params.Factors, Seed: opts.ANNSeed}, interner)
		if err != nil {
			return nil, err
		}
		global.SetItemVectorHook(annIndex.Upsert)
	}
	var policy bandit.Policy
	if opts.Explore {
		policy = bandit.NewThompson(opts.ExploreSeed)
	}
	return &System{
		kv:        kv,
		opts:      opts,
		weights:   params.Weights,
		Catalog:   cat,
		Profiles:  profiles,
		History:   hist,
		Models:    models,
		Tables:    tables,
		Hot:       hot,
		Bandit:    bd,
		cache:     cache,
		interner:  interner,
		annIndex:  annIndex,
		global:    global,
		policy:    policy,
		wallClock: time.Now,
	}, nil
}

// ANN returns the LSH candidate index, or nil when Options.ANN is off.
func (s *System) ANN() *ann.Index { return s.annIndex }

// FlushCaches empties the decoded-value cache and every model's item table —
// the benchmark's cold-serving drill. A plain Cache().Flush() leaves item
// parameters warm: the scorers read them from the item tables, which resolve
// through their own read-through and need their own flush to measure a true
// cold request.
func (s *System) FlushCaches() {
	if s.cache != nil {
		s.cache.Flush()
	}
	for _, g := range s.Models.Groups() {
		if m, err := s.Models.For(g); err == nil {
			m.FlushItems()
		}
	}
}

// Cache returns the system's decoded-value read cache, or nil when disabled
// (Options.CacheCapacity < 0). Benchmarks flush it to measure cold-cache
// serving; operators snapshot it for hit-rate telemetry.
func (s *System) Cache() *objcache.Cache { return s.cache }

// Options returns the system configuration.
func (s *System) Options() Options { return s.opts }

// Weights returns the implicit-feedback confidence settings in force.
func (s *System) Weights() feedback.Weights { return s.weights }

// SetClock installs a time source for recommendation requests. Without one,
// the system uses the timestamp of the latest ingested action — the natural
// "now" of a replayed stream.
func (s *System) SetClock(fn func() time.Time) { s.clock = fn }

// SetWallClock installs the time source used to measure serving latency.
// The default is the real wall clock; the simulation harness injects its
// virtual clock so the Latency histogram is a deterministic function of the
// scenario. A nil fn restores the default.
func (s *System) SetWallClock(fn func() time.Time) {
	if fn == nil {
		fn = time.Now
	}
	s.wallClock = fn
}

// Now returns the system's current notion of time.
func (s *System) Now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	if ns := s.streamNow.Load(); ns != 0 {
		return time.Unix(0, ns).UTC()
	}
	return time.Time{}
}

// groupOf is the serve path's group resolution: a profile that cannot be
// read degrades the request to the global group rather than failing it. The
// write path (Observe) returns the error instead.
func (s *System) groupOf(ctx context.Context, userID string) string {
	g, err := s.Profiles.GroupOf(ctx, userID)
	if err != nil || g == "" {
		return demographic.GlobalGroup
	}
	return g
}
