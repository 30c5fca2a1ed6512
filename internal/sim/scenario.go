package sim

import (
	"fmt"
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/topology"
)

// Transport selects how the pipeline reaches the key-value store.
type Transport string

const (
	// TransportLocal runs against the in-process sharded store.
	TransportLocal Transport = "local"
	// TransportTCP puts the real gob-over-TCP server/client pair between
	// the pipeline and the store, with the fault injector wrapping the
	// client — dropped connections and network latency then hit the same
	// code paths a two-process deployment exercises. A sharded scenario
	// serves its router instead, with the injectors on the replicas.
	TransportTCP Transport = "tcp"
)

// BoltFault schedules a failure window for one bolt component, modelling a
// worker crash + restart: executions in the window fail their tuple trees
// (the spout's Fail hook fires — at-least-once semantics), and when the
// window closes the bolt is re-prepared from scratch, losing any in-memory
// caches exactly like a restarted task.
type BoltFault struct {
	// Bolt is the component name (topology.ComputeMFName, ...).
	Bolt string
	// AfterTuples is how many executions succeed before the crash.
	AfterTuples uint64
	// DownFor is how many executions fail while the worker is down.
	DownFor uint64
	// Delay is added to every execution (a slow bolt rather than a dead
	// one); it composes with the crash window.
	Delay time.Duration
}

// Scenario declares one end-to-end simulation: workload shape, pipeline
// configuration, fault schedule, and serving phase. The zero value is not
// runnable; use the named constructors in scenarios.go or fill at least
// Name and Seed and let defaults cover the rest.
type Scenario struct {
	Name string
	Seed uint64

	// Workload shape (dataset.Config knobs the scenarios vary).
	Users, Videos int
	Days          int
	EventsPerDay  int

	// Pipeline configuration.
	Parallelism topology.Parallelism // zero value = topology.DefaultParallelism
	QueueSize   int                  // 0 = engine default
	MaxPending  int                  // max-spout-pending; 0 = unbounded
	Tracked     bool                 // acker tracking per action
	Synchronous bool                 // single-goroutine deterministic scheduler
	Transport   Transport            // "" = TransportLocal

	// Fault schedule.
	KVFaults   []kvstore.FaultPhase
	BoltFaults []BoltFault

	// Resilience, when non-nil, wraps every replica's injector with a
	// kvstore.Resilient decorator (retry/backoff/circuit-breaking) driven by
	// the virtual clock and a no-op sleep, so retry patterns replay exactly.
	Resilience *kvstore.ResilienceConfig
	// ServeFaults, when non-empty, replaces the injector's schedule right
	// before the serving phase — an outage that begins after training, the
	// degraded-serving drill. Phase op counts restart at the first serving
	// operation.
	ServeFaults []kvstore.FaultPhase

	// Sharded storage tier. Shards > 0 partitions the key space across that
	// many primary/backup shard groups (kvstore.ShardGroup) under a
	// Coordinator, and routes the pipeline through a kvstore.Sharded client;
	// Shards 1 is the one-group replicated tier. With TransportTCP the
	// router sits behind the gob-over-TCP server and the pipeline dials it.
	// Mutually exclusive with KVFaults and ServeFaults — shard scenarios
	// schedule faults per shard replica via ShardFaults.
	Shards int
	// ShardFaults is the per-shard-replica fault schedule, indexed by
	// group*2 + role (role 0 primary, 1 backup); missing or nil entries run
	// fault-free. Only valid with Shards > 0.
	ShardFaults [][]kvstore.FaultPhase
	// RebalanceAfterActions, when > 0, migrates RebalanceSlots slots from
	// group 0 to group 1 mid-replay, right before that action number feeds
	// the spout — an ownership move under live write traffic.
	RebalanceAfterActions int
	// RebalanceDuringServe fires the same migration twice during the serving
	// phase (at Recommends/3 and 2·Recommends/3), moving slots while reads
	// are in flight.
	RebalanceDuringServe bool
	// RebalanceSlots is how many slots each migration hook moves (default 4).
	RebalanceSlots int
	// StaleRouter builds a second Sharded client before any rebalance and,
	// after quiescence, reads every stored key through it: the client must
	// absorb ErrWrongServer redirects, refresh its map, and answer every
	// read — the split-brain recovery drill. Requires TransportLocal: the
	// second client is an in-process router.
	StaleRouter bool

	// Serving phase: Recommends requests of size TopN after the replay.
	Recommends int
	TopN       int

	// Explore serves the request phase in bandit-exploration mode
	// (recommend.Options.Explore, Thompson sampling seeded from Seed): the
	// slate is re-ranked over the blended candidate sources and every slot
	// is attributed to its arm.
	Explore bool
	// FeedbackClicks, with Explore, simulates that many clicks on the
	// served slates after the request phase and streams them through a
	// second topology run — the BanditReward → BanditState line — so the
	// posteriors move inside the scenario. Requires Explore.
	FeedbackClicks int

	// DisableCache turns off the decoded-value read cache
	// (recommend.Options.CacheCapacity = -1). The cache never changes
	// results — the cache-transparency test runs a scenario both ways and
	// requires identical state digests — but it does change which reads
	// reach the store, so fault-injection scenarios that count on faults
	// landing at specific KV operations keep one setting per scenario.
	DisableCache bool

	// Quantized serves the request phase through the int8-quantized scoring
	// path (recommend.Options.Quantized): the item table quantizes the stored
	// float item parameters and Eq. 2 runs on the integer kernel. The store's
	// contents, and so the state digest, do not change; rankings may differ
	// from the float path by at most the quantization error, so quantized
	// scenarios carry their own served-output digests.
	Quantized bool
	// ANN turns on the LSH candidate source (recommend.Options.ANN): the
	// user vector probes the hyperplane index and the hits join the
	// similar-table and hot-list candidates before ranking. The index is
	// seeded from Seed so probe results replay exactly.
	ANN bool
}

// withDefaults fills unset fields with the harness defaults: a workload
// small enough that the full matrix runs under -race in CI seconds, yet
// large enough that every namespace (models, tables, histories, hot lists)
// gets real traffic.
func (s Scenario) withDefaults() (Scenario, error) {
	if s.Name == "" {
		return s, fmt.Errorf("sim: scenario must be named")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Users <= 0 {
		s.Users = 40
	}
	if s.Videos <= 0 {
		s.Videos = 80
	}
	if s.Days <= 0 {
		s.Days = 2
	}
	if s.EventsPerDay <= 0 {
		s.EventsPerDay = 120
	}
	if (s.Parallelism == topology.Parallelism{}) {
		s.Parallelism = topology.DefaultParallelism()
	}
	if s.Parallelism.Spout != 1 {
		// One spout task keeps the replay order identical to the stream
		// order; the harness has no second stream to feed more tasks.
		return s, fmt.Errorf("sim: scenario %q needs Parallelism.Spout == 1, got %d", s.Name, s.Parallelism.Spout)
	}
	if s.Transport == "" {
		s.Transport = TransportLocal
	}
	if s.Transport != TransportLocal && s.Transport != TransportTCP {
		return s, fmt.Errorf("sim: scenario %q has unknown transport %q", s.Name, s.Transport)
	}
	if s.Shards < 0 {
		return s, fmt.Errorf("sim: scenario %q has negative Shards %d", s.Name, s.Shards)
	}
	if s.Shards > 0 {
		if s.StaleRouter && s.Transport == TransportTCP {
			return s, fmt.Errorf("sim: scenario %q combines StaleRouter with the TCP transport", s.Name)
		}
		if len(s.KVFaults) > 0 || len(s.ServeFaults) > 0 {
			return s, fmt.Errorf("sim: scenario %q must schedule faults via ShardFaults when Shards > 0", s.Name)
		}
		if len(s.ShardFaults) > 2*s.Shards {
			return s, fmt.Errorf("sim: scenario %q has %d shard fault schedules for %d shard replicas", s.Name, len(s.ShardFaults), 2*s.Shards)
		}
	} else if len(s.ShardFaults) > 0 {
		return s, fmt.Errorf("sim: scenario %q sets ShardFaults without Shards > 0", s.Name)
	}
	if s.Shards > 1 {
		if s.RebalanceSlots == 0 {
			s.RebalanceSlots = 4
		}
		if s.RebalanceSlots < 0 {
			return s, fmt.Errorf("sim: scenario %q has negative RebalanceSlots %d", s.Name, s.RebalanceSlots)
		}
	} else if s.RebalanceAfterActions > 0 || s.RebalanceDuringServe || s.RebalanceSlots > 0 || s.StaleRouter {
		return s, fmt.Errorf("sim: scenario %q sets rebalance knobs without Shards >= 2", s.Name)
	}
	if s.RebalanceAfterActions < 0 {
		return s, fmt.Errorf("sim: scenario %q has negative RebalanceAfterActions %d", s.Name, s.RebalanceAfterActions)
	}
	if s.Recommends <= 0 {
		s.Recommends = 30
	}
	if s.TopN <= 0 {
		s.TopN = 10
	}
	if s.FeedbackClicks < 0 {
		return s, fmt.Errorf("sim: scenario %q has negative FeedbackClicks %d", s.Name, s.FeedbackClicks)
	}
	if s.FeedbackClicks > 0 && !s.Explore {
		return s, fmt.Errorf("sim: scenario %q sets FeedbackClicks without Explore", s.Name)
	}
	return s, nil
}
