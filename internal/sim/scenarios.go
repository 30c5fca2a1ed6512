package sim

import (
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/topology"
)

// serialParallelism is the fully serialized layout replay determinism
// requires: one task per component, so tuple routing and store write order
// are a function of the stream alone.
func serialParallelism() topology.Parallelism {
	return topology.Parallelism{
		Spout: 1, ComputeMF: 1, MFStorage: 1, UserHistory: 1,
		GetItemPairs: 1, ItemPairSim: 1, ResultStorage: 1,
		BanditReward: 1, BanditState: 1,
	}
}

// Scenarios returns the named scenario matrix — the suite `make test-sim`
// runs. Every scenario must finish with zero invariant violations; the
// matrix spans transports, fault classes, and load shapes so a regression
// anywhere in the pipeline trips at least one of them.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// The baseline: default parallelism, no faults, tracked so the
			// acker conservation law is checked action by action.
			Name:    "happy-path",
			Seed:    101,
			Tracked: true,
		},
		{
			// Same seed ⇒ byte-identical model state. Runs on the storm
			// engine's synchronous scheduler: execution order is a pure
			// function of the stream, because even single-task components
			// race on shared store keys under the concurrent scheduler
			// (history append vs. pair-window read, vector write vs. pair
			// score read). The test runs this twice and compares digests.
			Name:        "replay-determinism",
			Seed:        202,
			Parallelism: serialParallelism(),
			MaxPending:  1,
			Tracked:     true,
			Synchronous: true,
		},
		{
			// Every ~20th store operation fails, forever. Bolts fail their
			// tuple trees, serving requests error — but nothing panics, no
			// tree leaks, and durable state stays well-formed.
			Name:     "kv-flaky",
			Seed:     303,
			Tracked:  true,
			KVFaults: []kvstore.FaultPhase{{FailRate: 0.05}},
		},
		{
			// A latency spike in the middle of the replay: 200 operations
			// slowed by 2ms after a quiet lead-in. Exercises timer paths and
			// proves slow storage stalls, not corrupts.
			Name:    "kv-latency-spike",
			Seed:    404,
			Tracked: true,
			KVFaults: []kvstore.FaultPhase{
				{Ops: 300},
				{Ops: 200, Latency: 2 * time.Millisecond},
				{Ops: 0},
			},
		},
		{
			// A partial partition: the global similar-video tables become
			// unreachable while every other namespace keeps working — the
			// per-group tables and models train through.
			Name:    "kv-partition",
			Seed:    505,
			Tracked: true,
			// The outage starts mid-replay and holds to the end. Its lead-in
			// is counted in operations on the partitioned namespace itself,
			// so no other traffic — reads the caches absorb or not — moves
			// its start. That traffic's own volume is set by how far pair
			// generation runs ahead of the history appends it reads: with
			// unbounded pending trees the concurrent scheduler let it run
			// the whole replay ahead, and a run made anywhere from a few
			// dozen to ~4k similar-table operations. MaxPending bounds the
			// lag, which holds the total at 2.3k ± 1% over hundreds of runs
			// (under CPU contention too), so the outage reliably begins
			// after the first thousand of them and the rest land inside it
			// — the expectations in scenarios_test.go demand injected
			// faults AND failed tuple trees.
			MaxPending: 16,
			KVFaults: []kvstore.FaultPhase{
				{Ops: 1000, KeyPrefix: "sys/global.sim"},
				{FailRate: 1, KeyPrefix: "sys/global.sim"},
			},
		},
		{
			// One bolt runs slow (per-tuple delay in ItemPairSim, the widest
			// fan-in). Backpressure propagates through the bounded queues;
			// the run completes with full accounting.
			Name:       "slow-bolt",
			Seed:       606,
			Tracked:    true,
			BoltFaults: []BoltFault{{Bolt: topology.ItemPairSimName, Delay: 200 * time.Microsecond}},
		},
		{
			// A ComputeMF worker crashes after 50 tuples, drops 10 on the
			// floor (their trees fail and are not replayed), then restarts
			// with cold caches and keeps training.
			Name:       "bolt-restart",
			Seed:       707,
			Tracked:    true,
			BoltFaults: []BoltFault{{Bolt: topology.ComputeMFName, AfterTuples: 50, DownFor: 10}},
		},
		{
			// A day's worth of traffic compressed into tiny queues:
			// backpressure instead of drops, untracked emission (the
			// fire-and-forget configuration production spouts default to).
			Name:         "burst-traffic",
			Seed:         808,
			Days:         1,
			EventsPerDay: 300,
			QueueSize:    4,
		},
		{
			// Nearly no training data, then more requests than users: new
			// users must be served from the demographic hot lists without a
			// single invariant breach.
			Name:         "cold-start",
			Seed:         909,
			Users:        30,
			Videos:       60,
			Days:         1,
			EventsPerDay: 30,
			Recommends:   60,
			Tracked:      true,
		},
		{
			// The baseline again, but through the real gob-over-TCP
			// server/client pair — same invariants across the wire.
			Name:      "tcp-happy",
			Seed:      1010,
			Tracked:   true,
			Transport: TransportTCP,
		},
		{
			// Fault injection on top of the network transport: failures now
			// model dropped requests between pipeline and store.
			Name:      "tcp-flaky",
			Seed:      1111,
			Tracked:   true,
			Transport: TransportTCP,
			KVFaults:  []kvstore.FaultPhase{{FailRate: 0.03}},
		},
		{
			// The one-group replicated tier (Shards 1: a primary/backup
			// ShardGroup behind its router, each replica behind its own
			// Resilient decorator); the backup dies permanently 1000 ops into
			// the replay. Its first failed replication marks it down and the
			// primary carries on alone, so this run's Digest AND ServeDigest
			// must be byte-identical to the same scenario unsharded and
			// fault-free (the tier-equivalence test runs both), while the dead
			// backup's own digest visibly diverges. Fully serialized for that
			// comparison to be exact.
			Name:        "replica-failover",
			Seed:        1212,
			Parallelism: serialParallelism(),
			MaxPending:  1,
			Tracked:     true,
			Synchronous: true,
			Shards:      1,
			Resilience: &kvstore.ResilienceConfig{
				MaxRetries: 1,
				Backoff:    kvstore.BackoffConfig{Base: kvstore.DefaultBackoffBase, Max: kvstore.DefaultBackoffMax},
				Breaker:    kvstore.BreakerConfig{Threshold: 4, Cooldown: 100 * time.Millisecond},
			},
			ShardFaults: [][]kvstore.FaultPhase{
				nil,
				{{Ops: 1000}, {FailRate: 1}},
			},
		},
		{
			// The breaker drill on the single Resilient chain serve-remote
			// deploys (recserve -kv): a 40-op total outage trips the breaker
			// (failing fast instead of burning the retry budget on a dead
			// backend), then half-open probes burn down the outage window
			// (the virtual clock jumps minutes per action, dwarfing the
			// cooldown) until one lands and the breaker closes again. With no
			// second replica the writes inside the window fail their tuple
			// trees; the expectations demand the full trip AND reset, every
			// tree resolved, and a serve phase without a single error.
			// MaxPending 1 paces the virtual clock with processing: an
			// unbounded spout drains the whole stream (and the clock) ahead
			// of the bolts, freezing the clock mid-outage so the cooldown
			// never elapses.
			Name:       "breaker-trip-recover",
			Seed:       1313,
			Tracked:    true,
			MaxPending: 1,
			Resilience: &kvstore.ResilienceConfig{
				MaxRetries: 1,
				Backoff:    kvstore.BackoffConfig{Base: kvstore.DefaultBackoffBase, Max: kvstore.DefaultBackoffMax},
				Breaker:    kvstore.BreakerConfig{Threshold: 5, Cooldown: 100 * time.Millisecond},
			},
			KVFaults: []kvstore.FaultPhase{{Ops: 1000}, {Ops: 40, FailRate: 1}, {Ops: 0}},
		},
		{
			// Total model/simtable outage ("sys/...") that begins only at the
			// serving phase: every personalized read path is dead, yet every
			// request must still be answered — Degraded, from the demographic
			// hot lists, whose "sys.hot:" namespace survives the blackout.
			// The cache is disabled so the blackout deterministically reaches
			// every model read instead of whatever the replay left cached.
			Name:         "degraded-serving",
			Seed:         1414,
			Tracked:      true,
			DisableCache: true,
			ServeFaults:  []kvstore.FaultPhase{{FailRate: 1, KeyPrefix: "sys/"}},
		},
		{
			// Reward starvation: exploration serves every slate (pulls are
			// charged, slots attributed) but no click ever comes back, so the
			// posteriors must sit at their priors — wins exactly zero — and
			// serving must never degrade on account of an empty reward state.
			// Fully serialized so the replay-determinism test can demand
			// byte-identical digests for the explored slates too.
			Name:        "reward-starvation",
			Seed:        1515,
			Parallelism: serialParallelism(),
			MaxPending:  1,
			Tracked:     true,
			Synchronous: true,
			Explore:     true,
		},
		{
			// The loop closed: after the request phase, 20 simulated clicks on
			// served slots stream through a second topology run — the
			// BanditReward → BanditState line consumes the attributions and
			// the final reward state must show real wins.
			Name:           "explore-feedback",
			Seed:           1616,
			Parallelism:    serialParallelism(),
			MaxPending:     1,
			Tracked:        true,
			Synchronous:    true,
			Explore:        true,
			FeedbackClicks: 20,
		},
		{
			// The quantized serving drill: the request phase scores through
			// the int8 kernel (Eq. 2 on DotQ8) instead of the float path.
			// Fully serialized so the quantized determinism test can demand
			// byte-identical digests, and so TestANNTrainingTransparency can
			// compare its state digest against a float run — quantization is
			// serve-only and must leave the trained state untouched.
			Name:        "quantized-serving",
			Seed:        1818,
			Parallelism: serialParallelism(),
			MaxPending:  1,
			Tracked:     true,
			Synchronous: true,
			Quantized:   true,
		},
		{
			// ANN retrieval stacked on quantized scoring — the full sub-10µs
			// serving configuration: the user vector probes the LSH index,
			// the hits join the similar-table and hot-list candidates, and
			// the blend is scored on the integer kernel. Serialized for the
			// same determinism and training-transparency comparisons: with
			// either knob off, or both, the state digest must not change.
			Name:        "ann-retrieval",
			Seed:        1919,
			Parallelism: serialParallelism(),
			MaxPending:  1,
			Tracked:     true,
			Synchronous: true,
			Quantized:   true,
			ANN:         true,
		},
		{
			// Exploration composed with the degraded-serving blackout: the
			// "sys/" outage kills every personalized read before the explore
			// re-rank is reached, so all requests fall back to demographic hot
			// lists and the policy never samples — zero pulls, zero
			// attributions, zero errors. Degraded responses never explore.
			Name:         "explore-blackout",
			Seed:         1717,
			Tracked:      true,
			DisableCache: true,
			Explore:      true,
			ServeFaults:  []kvstore.FaultPhase{{FailRate: 1, KeyPrefix: "sys/"}},
		},
		{
			// Shard-loss transparency: two shard groups, and group 1's primary
			// dies permanently 800 ops into the replay. The group absorbs the
			// loss internally — the backup (which replicated every prior write
			// synchronously) promotes, writes and reads continue against it —
			// so this run's Digest AND ServeDigest must be byte-identical to
			// the same scenario unsharded and fault-free (the tier-equivalence
			// test runs both). Fully serialized for that comparison;
			// cache disabled so faults land at deterministic store ops.
			Name:         "shard-loss",
			Seed:         2020,
			Parallelism:  serialParallelism(),
			MaxPending:   1,
			Tracked:      true,
			Synchronous:  true,
			DisableCache: true,
			Shards:       2,
			ShardFaults: [][]kvstore.FaultPhase{
				nil, nil,
				{{Ops: 800}, {FailRate: 1}},
				nil,
			},
		},
		{
			// Live rebalance under serving traffic: slot migrations fire at
			// one third and two thirds of the request phase, with Recommend
			// reads in flight on either side. The freeze→transfer→flip
			// handoff blocks only writes, so every request must succeed, and
			// the moved state must be byte-for-byte intact: Digest and
			// ServeDigest must match the same scenario unsharded with no
			// rebalance at all (the tier-equivalence test runs both).
			Name:                 "rebalance-mid-serving",
			Seed:                 2121,
			Parallelism:          serialParallelism(),
			MaxPending:           1,
			Tracked:              true,
			Synchronous:          true,
			DisableCache:         true,
			Shards:               2,
			RebalanceDuringServe: true,
			RebalanceSlots:       4,
		},
		{
			// Split-brain recovery: a second router is built on the version-1
			// map, then a mid-replay rebalance (under live write traffic —
			// writes that land in the freeze window park on the coordinator
			// and retry) moves four slots and obsoletes that map. After
			// quiescence the stale router reads every stored key: each read
			// into a moved slot draws ErrWrongServer from the old owner,
			// refreshes, and must answer correctly from the new one. It sets
			// neither Synchronous nor a serial Parallelism, so it runs the
			// concurrent scheduler, and its digests vary from run to run at a
			// fixed tree (three runs, three digests, zero violations): it is
			// held to its invariants, never to a byte-identical digest.
			Name:                  "split-brain",
			Seed:                  2222,
			Tracked:               true,
			Shards:                2,
			RebalanceAfterActions: 150,
			RebalanceSlots:        4,
			StaleRouter:           true,
		},
	}
}
