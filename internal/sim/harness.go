// Package sim is the deterministic end-to-end simulation harness: it wires
// dataset replay → storm topology (the Figure 2 train bolts) → kvstore
// (in-process, or real gob-over-TCP) → simtable → recommend, drives the
// whole assembly from a virtual clock and a seeded fault schedule, and then
// turns invariant checkers loose on the result — every stored parameter
// finite and bounded, every spouted tuple acked or failed exactly once,
// every top-N list sorted/deduped/within catalog, every served request
// accounted in the latency histogram.
//
// A run is a pure function of its Scenario: same seed ⇒ byte-identical
// encoded model state (see CanonicalState), which is what lets the scenario
// matrix double as a regression oracle for every future perf or scaling
// change. Determinism rests on three legs: the virtual clock (no component
// on the sim-covered path consults time.Now), seeded RNGs everywhere (the
// dataset stream, the storm edge ids, the fault injector — no global
// math/rand), and a fully serialized pipeline for the determinism scenarios
// (parallelism 1 + max-spout-pending 1 + tracked emission, so each action's
// tuple tree completes before the next begins).
package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/storm"
	"vidrec/internal/topology"
)

// Report is the outcome of one scenario run: raw accounting from every
// layer plus the invariant violations found. An empty Violations slice is
// the pass criterion; the counters exist so tests can assert the scenario
// actually exercised what it claims (faults were injected, trees did fail).
type Report struct {
	Scenario Scenario

	// Replay accounting.
	Actions     int    // actions pulled from the dataset stream
	Spouted     uint64 // tuples the spout emitted
	Acked       uint64 // tuple trees fully processed (tracked runs)
	FailedTrees uint64 // tuple trees failed (tracked runs)
	Unresolved  int    // trees neither acked nor failed at shutdown

	// Storage accounting (summed over every replica's injector).
	KVOps          uint64 // operations seen by the fault injectors
	InjectedFaults uint64 // operations they failed
	NetRequests    uint64 // frames the TCP server answered; zero in-process

	// Resilience accounting (summed over every replica's decorator; zero
	// when the scenario runs without Resilience).
	Retries       uint64 // attempts beyond the first
	Exhausted     uint64 // operations failed after the full retry budget
	BreakerTrips  uint64 // closed→open transitions
	BreakerResets uint64 // half-open→closed transitions

	// Sharding accounting (zero unless the scenario sets Shards > 0).
	ShardRedirects  uint64 // client retries after ErrWrongServer
	ShardPromotes   uint64 // primary failovers across all groups
	ShardRebalances uint64 // completed slot migrations
	ShardMovedKeys  uint64 // keys carried by those migrations
	ShardSyncSkips  uint64 // backup replications skipped (replica down)
	ReadFallbacks   uint64 // reads answered by a non-primary replica

	// Serving accounting.
	Recommends      int // successful Recommend calls
	RecommendErrors int // Recommend calls that returned an error
	Degraded        int // served responses that came from the demographic fallback

	// Exploration accounting, decoded from the final reward state (zero
	// unless the scenario explores): total slate slots charged to bandit
	// arms, and total reward mass credited back by the feedback phase.
	ExplorePulls float64
	ExploreWins  float64

	// Digest is the SHA-256 of the canonical encoded model state (the union
	// of every group's acting primary when sharded); two runs of the same
	// scenario must produce the same digest.
	Digest string

	// ReplicaDigests is each shard replica's own state digest, indexed like
	// ShardFaults (group*2 + role); nil unless sharded. A replica that died
	// mid-run diverges from its group's survivor — visibly, here.
	ReplicaDigests []string

	// ServeDigest is the SHA-256 of every served list (ids, scores,
	// provenance counters, in request order). Digest proves the *written*
	// state matches; ServeDigest proves the *served* output does — the
	// half the read cache could corrupt without ever touching the store.
	ServeDigest string

	// Violations lists every invariant breach, empty on a healthy run.
	Violations []string
}

// Run executes one scenario end to end and returns its report. An error
// means the harness itself could not run the scenario (bad configuration,
// topology build failure); invariant breaches are reported in
// Report.Violations, not as errors.
func Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg := dataset.Config{
		Seed:             sc.Seed,
		Users:            sc.Users,
		Videos:           sc.Videos,
		Types:            6,
		Factors:          4,
		Days:             sc.Days,
		EventsPerDay:     sc.EventsPerDay,
		ZipfExponent:     1.05,
		TrendDriftPerDay: 0.08,
		GroupInfluence:   0.6,
		RegisteredShare:  0.65,
		Start:            time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC),
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: generate dataset: %w", err)
	}
	vclock := NewVirtualClock(cfg.Start)

	// Storage chain: Local, optionally behind the real gob-over-TCP pair,
	// the fault injector, then the optional Resilient decorator — faults
	// land below the retry layer so retries genuinely re-roll the injector.
	// This is the single-backend stack recserve -kv deploys; the harness
	// keeps each layer to schedule faults, read counters and digest state. With Shards > 0
	// the stack is the sharded tier instead: per-group primary/backup
	// chains under a Coordinator, fronted by the Sharded router (shard.go).
	// Over TCP the router is what the server serves, the composition
	// kvserver -shard-groups deploys behind recserve -kv; the injectors
	// then sit on the replicas, below the server.
	var cluster *shardCluster
	var server *kvstore.Server
	var base *kvstore.Local
	var faulty *kvstore.Faulty
	var resilient *kvstore.Resilient
	var store kvstore.Store
	if sc.Shards > 0 {
		cluster, err = newShardCluster(sc, vclock)
		if err != nil {
			return nil, err
		}
		store = cluster.router
	} else {
		base = kvstore.NewLocal(32)
		store = base
	}
	if sc.Transport == TransportTCP {
		server, err = kvstore.NewServer(ctx, store, "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("sim: start kv server: %w", err)
		}
		defer func() {
			_ = server.Close() // shutdown path; Close errors carry no state
		}()
		client, err := kvstore.DialContext(ctx, server.Addr())
		if err != nil {
			return nil, fmt.Errorf("sim: dial kv server: %w", err)
		}
		defer func() {
			_ = client.Close() // shutdown path; Close errors carry no state
		}()
		store = client
	}
	if cluster == nil {
		faulty = kvstore.NewFaulty(store, sc.Seed^0x5EED)
		store = faulty
		if sc.Resilience != nil {
			resilient = newSimResilient(faulty, *sc.Resilience, sc.Seed^0x5EED^0xB0FF, vclock)
			store = resilient
		}
	}

	params := core.DefaultParams()
	params.Factors = 8
	opts := recommend.DefaultOptions()
	if sc.DisableCache {
		opts.CacheCapacity = -1
	}
	if sc.Explore {
		opts.Explore = true
		opts.ExploreSeed = sc.Seed ^ 0xBA17D
	}
	if sc.Quantized {
		opts.Quantized = true
	}
	if sc.ANN {
		opts.ANN = true
		opts.ANNSeed = sc.Seed ^ 0xA55
	}
	sys, err := recommend.NewSystem(store, params, simtable.DefaultConfig(), opts)
	if err != nil {
		return nil, fmt.Errorf("sim: build system: %w", err)
	}
	sys.SetClock(vclock.Now)
	sys.SetWallClock(vclock.Now)

	// Seed catalog and profiles while the injector is quiet, then arm the
	// schedule so phase op-counts start at the first replay operation.
	if err := ds.FillCatalog(ctx, sys.Catalog); err != nil {
		return nil, fmt.Errorf("sim: fill catalog: %w", err)
	}
	if err := ds.FillProfiles(ctx, sys.Profiles); err != nil {
		return nil, fmt.Errorf("sim: fill profiles: %w", err)
	}
	if cluster != nil {
		cluster.arm(sc)
	} else {
		faulty.SetSchedule(sc.KVFaults)
	}

	// Mid-replay rebalance: the hook fires between two actions (after the
	// Nth action's tuple tree, before the N+1th feeds the spout on the
	// serialized scenarios), so the migration runs under live write
	// traffic at a deterministic point in the stream.
	var rebalanceHook func()
	if cluster != nil && sc.RebalanceAfterActions > 0 {
		rebalanceHook = func() { cluster.moveSlots(ctx, sc.RebalanceSlots) }
	}
	src := &clockSource{stream: ds.Stream(), clock: vclock,
		after: sc.RebalanceAfterActions, hook: rebalanceHook}
	topo, err := topology.BuildWithOptions(sys,
		func(int) topology.Source { return src },
		sc.Parallelism,
		topology.Options{
			Tracked:     sc.Tracked,
			QueueSize:   sc.QueueSize,
			MaxPending:  sc.MaxPending,
			Synchronous: sc.Synchronous,
			Seed:        sc.Seed ^ 0xED6E,
			WrapBolt:    boltWrapper(sc.BoltFaults),
		})
	if err != nil {
		return nil, fmt.Errorf("sim: build topology: %w", err)
	}
	if err := topo.Run(ctx); err != nil {
		return nil, fmt.Errorf("sim: topology run: %w", err)
	}

	rep := &Report{Scenario: sc, Actions: src.count()}
	spout, err := topo.MetricsFor(topology.SpoutName)
	if err != nil {
		return nil, err
	}
	rep.Spouted = spout.Emitted
	rep.Acked = spout.Acked
	rep.FailedTrees = spout.FailedTrees
	rep.Unresolved = topo.UnresolvedTrees()

	// Serving-phase outage, if scheduled: SetSchedule resets the injector's
	// since-schedule op counter, so bank the replay ops first (Injected() is
	// cumulative and needs no banking).
	if len(sc.ServeFaults) > 0 {
		rep.KVOps += faulty.Ops()
		faulty.SetSchedule(sc.ServeFaults)
	}

	// Serving phase: deterministic request sequence over the universe,
	// the virtual clock ticking between requests.
	vclock.Advance(time.Minute)
	users := ds.Users()
	videos := ds.Videos()
	results := make([]*recommend.Result, 0, sc.Recommends)
	servedUsers := make([]string, 0, sc.Recommends)
	for i := 0; i < sc.Recommends; i++ {
		if cluster != nil && sc.RebalanceDuringServe && i > 0 &&
			(i == sc.Recommends/3 || i == 2*sc.Recommends/3) {
			// Slot migration with requests in flight either side of it: the
			// freeze→transfer→flip handoff must never fail a read, so the
			// RecommendErrors count below doubles as the assertion.
			cluster.moveSlots(ctx, sc.RebalanceSlots)
		}
		req := recommend.Request{UserID: users[i%len(users)].ID, N: sc.TopN}
		if i%2 == 1 {
			req.CurrentVideo = videos[i%len(videos)].Meta.ID
		}
		res, err := sys.Recommend(ctx, req)
		if err != nil {
			rep.RecommendErrors++
		} else {
			if res.Degraded {
				rep.Degraded++
			}
			results = append(results, res)
			servedUsers = append(servedUsers, req.UserID)
		}
		vclock.Advance(time.Second)
	}
	rep.Recommends = len(results)

	// Feedback phase (Explore with FeedbackClicks): simulated clicks on the
	// served slates stream through a second topology run, exercising the
	// BanditReward → BanditState line the way production feedback would.
	// Clicks walk the slates breadth-first — every slate's first slot, then
	// every second slot — so the credit spreads across requests.
	if sc.FeedbackClicks > 0 {
		clicks := make([]feedback.Action, 0, sc.FeedbackClicks)
		for j := 0; len(clicks) < sc.FeedbackClicks; j++ {
			added := false
			for i, res := range results {
				if len(clicks) >= sc.FeedbackClicks {
					break
				}
				if j >= len(res.Videos) {
					continue
				}
				vclock.Advance(time.Second)
				clicks = append(clicks, feedback.Action{
					UserID:    servedUsers[i],
					VideoID:   res.Videos[j].ID,
					Type:      feedback.Click,
					Timestamp: vclock.Now(),
				})
				added = true
			}
			if !added {
				break // every slate fully clicked through
			}
		}
		fbTopo, err := topology.BuildWithOptions(sys,
			func(int) topology.Source { return topology.SliceSource(clicks) },
			sc.Parallelism,
			topology.Options{
				Tracked:     sc.Tracked,
				QueueSize:   sc.QueueSize,
				MaxPending:  sc.MaxPending,
				Synchronous: sc.Synchronous,
				Seed:        sc.Seed ^ 0xFEED,
				WrapBolt:    boltWrapper(sc.BoltFaults),
			})
		if err != nil {
			return nil, fmt.Errorf("sim: build feedback topology: %w", err)
		}
		if err := fbTopo.Run(ctx); err != nil {
			return nil, fmt.Errorf("sim: feedback topology run: %w", err)
		}
		rep.Actions += len(clicks)
		fbSpout, err := fbTopo.MetricsFor(topology.SpoutName)
		if err != nil {
			return nil, err
		}
		rep.Spouted += fbSpout.Emitted
		rep.Acked += fbSpout.Acked
		rep.FailedTrees += fbSpout.FailedTrees
		rep.Unresolved += fbTopo.UnresolvedTrees()
	}
	// The authoritative state for digests, checkers, and explore accounting:
	// the base store unsharded, the merged union of every group's acting
	// primary when sharded (disjoint slots make the union exactly the state
	// an unpartitioned run holds — the tier-equivalence test pins this).
	var authBase *kvstore.Local
	if cluster != nil {
		// The stale-router probe runs first so the report counts its
		// redirects.
		rep.Violations = append(rep.Violations, cluster.probeStale(ctx)...)
		cluster.report(rep)
		rep.Violations = append(rep.Violations, cluster.hookViolations()...)
		authBase, err = cluster.merged(ctx)
		if err != nil {
			return nil, err
		}
	} else {
		rep.KVOps += faulty.Ops()
		rep.InjectedFaults += faulty.Injected()
		rep.addResilience(resilient)
		authBase = base
	}

	// Explore accounting: decode the final reward state straight off the
	// authoritative state. A missing record means nothing explored — the
	// reward-starvation and blackout expectations assert on exactly that.
	if raw, ok, err := authBase.Get(ctx, kvstore.Key("sys.bandit", "arms")); err == nil && ok {
		if st, _, err := bandit.DecodeState(raw); err == nil {
			for a := 0; a < bandit.NumArms; a++ {
				rep.ExplorePulls += st.Pulls[a]
				rep.ExploreWins += st.Wins[a]
			}
		}
	}

	if server != nil {
		rep.NetRequests = server.Requests()
	}
	rep.Violations = append(rep.Violations, checkConservation(sc, topo, rep)...)
	rep.Violations = append(rep.Violations, checkStore(ds, authBase, params, opts, simtable.DefaultConfig())...)
	rep.Violations = append(rep.Violations, checkResults(ds, results, sc.TopN)...)
	rep.Violations = append(rep.Violations, checkLatency(sys, len(results))...)

	rep.Digest = StateDigest(authBase)
	rep.ServeDigest = serveDigest(results)
	return rep, nil
}

// newSimResilient wraps a replica's injector in the Resilient decorator.
// The breaker's cooldown follows the virtual clock, and retry waits are
// no-ops: sleeping on backoff.Delay would either block real time (slow) or
// advance the virtual clock (diverging the clock trajectory between faulted
// and fault-free runs, breaking the failover digest comparison). Breaker
// recovery timing comes from the action timestamps instead, which dwarf any
// cooldown.
func newSimResilient(inner kvstore.Store, cfg kvstore.ResilienceConfig, seed uint64, vclock *VirtualClock) *kvstore.Resilient {
	r := kvstore.NewResilient(inner, cfg, seed)
	r.SetClock(vclock.Now)
	r.SetSleep(func(ctx context.Context, _ time.Duration) error { return ctx.Err() })
	return r
}

// addResilience folds one Resilient decorator's counters into the report;
// a nil decorator adds nothing.
func (rep *Report) addResilience(r *kvstore.Resilient) {
	if r == nil {
		return
	}
	s := r.Stats()
	rep.Retries += s.Retries
	rep.Exhausted += s.Exhausted
	rep.BreakerTrips += s.Breaker.Trips
	rep.BreakerResets += s.Breaker.Resets
}

// serveDigest canonically hashes the serving phase's output: every result's
// provenance counters and ranked (id, score) pairs, in request order. Scores
// are rendered with %.17g, enough digits to round-trip any float64, so two
// digests match only on bit-identical served lists.
func serveDigest(results []*recommend.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%d|%d|%d|%t|%t|", r.Seeds, r.Candidates, r.HotMerged, r.Degraded, r.Explored)
		for _, e := range r.Videos {
			fmt.Fprintf(h, "%s=%.17g;", e.ID, e.Score)
		}
		for _, a := range r.Arms {
			fmt.Fprintf(h, "a%d;", uint8(a))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clockSource feeds the spout from the dataset stream, advancing the
// virtual clock to each action's timestamp so pipeline time follows replay
// time instead of wall time.
type clockSource struct {
	mu      sync.Mutex
	stream  *dataset.Stream // guarded by mu
	clock   *VirtualClock
	actions int    // guarded by mu
	after   int    // fire hook once when this many actions have been drawn
	hook    func() // guarded by mu (fired at most once, under the action count check)
}

// Next implements topology.Source.
func (s *clockSource) Next() (feedback.Action, bool) {
	s.mu.Lock()
	var fire func()
	if s.hook != nil && s.actions >= s.after {
		fire, s.hook = s.hook, nil
	}
	s.mu.Unlock()
	if fire != nil {
		// Run outside the source lock: the hook reaches into the storage
		// tier (slot rebalance) and must not nest under mu.
		fire()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.stream.Next()
	if !ok {
		return feedback.Action{}, false
	}
	s.actions++
	s.clock.SetAtLeast(a.Timestamp)
	return a, true
}

func (s *clockSource) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.actions
}

// errBoltDown is returned by executions inside a scheduled crash window.
var errBoltDown = fmt.Errorf("sim: bolt worker down (scheduled fault)")

// boltWrapper builds the topology WrapBolt hook for the scenario's bolt
// fault schedule, or nil when there is none.
func boltWrapper(faults []BoltFault) func(string, storm.Bolt) storm.Bolt {
	if len(faults) == 0 {
		return nil
	}
	return func(name string, inner storm.Bolt) storm.Bolt {
		for _, f := range faults {
			if f.Bolt == name {
				return &faultyBolt{inner: inner, cfg: f}
			}
		}
		return inner
	}
}

// faultyBolt decorates one bolt task with a crash window and an optional
// per-tuple delay. Executions inside the window fail their tuple trees —
// counted in FailedTrees and never replayed, so those actions' remaining
// steps are lost — and the first execution after the window re-prepares the
// inner bolt, modelling a restarted worker that lost its in-memory caches.
type faultyBolt struct {
	inner storm.Bolt
	cfg   BoltFault
	n     uint64
	down  bool
	ctx   context.Context
	out   *storm.BoltCollector
}

func (b *faultyBolt) Prepare(ctx context.Context, out *storm.BoltCollector) error {
	b.ctx, b.out = ctx, out
	return b.inner.Prepare(ctx, out)
}

func (b *faultyBolt) Execute(t *storm.Tuple) error {
	if b.cfg.Delay > 0 {
		time.Sleep(b.cfg.Delay)
	}
	b.n++
	if b.cfg.DownFor > 0 && b.n > b.cfg.AfterTuples && b.n <= b.cfg.AfterTuples+b.cfg.DownFor {
		b.down = true
		return errBoltDown
	}
	if b.down {
		// The worker comes back: a restarted task runs Prepare afresh and
		// starts with cold caches.
		if err := b.inner.Prepare(b.ctx, b.out); err != nil {
			return err
		}
		b.down = false
	}
	return b.inner.Execute(t)
}
