package sim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vidrec/internal/kvstore"
	"vidrec/internal/topology"
)

// expectations holds the per-scenario assertions that prove a run actually
// exercised what its name claims — a fault scenario with zero injected
// faults would pass the invariants vacuously.
var expectations = map[string]func(t *testing.T, rep *Report){
	"happy-path": func(t *testing.T, rep *Report) {
		if rep.FailedTrees != 0 {
			t.Errorf("happy path failed %d trees, want 0", rep.FailedTrees)
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("happy path had %d recommend errors, want 0", rep.RecommendErrors)
		}
	},
	"kv-flaky": func(t *testing.T, rep *Report) {
		if rep.InjectedFaults == 0 {
			t.Error("flaky store injected no faults — scenario is vacuous")
		}
	},
	"kv-partition": func(t *testing.T, rep *Report) {
		if rep.InjectedFaults == 0 {
			t.Error("partition injected no faults — scenario is vacuous")
		}
		if rep.FailedTrees == 0 {
			t.Error("partition failed no tuple trees — writes never hit the partitioned namespace")
		}
	},
	"bolt-restart": func(t *testing.T, rep *Report) {
		if rep.FailedTrees == 0 {
			t.Error("bolt crash window failed no tuple trees")
		}
		if rep.Acked == 0 {
			t.Error("no tuple trees acked — the bolt never recovered")
		}
	},
	"cold-start": func(t *testing.T, rep *Report) {
		if rep.Recommends == 0 {
			t.Error("cold start served nothing — hot-list fallback is broken")
		}
	},
	"replica-failover": func(t *testing.T, rep *Report) {
		if rep.InjectedFaults == 0 {
			t.Error("backup outage injected no faults — scenario is vacuous")
		}
		if rep.ShardSyncSkips == 0 {
			t.Error("dead backup skipped no replication — the group never noticed the loss")
		}
		if rep.Retries == 0 {
			t.Error("the dead backup's decorator never retried — Resilient is not under the group")
		}
		if rep.FailedTrees != 0 {
			t.Errorf("backup loss failed %d tuple trees despite a healthy primary", rep.FailedTrees)
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors despite a healthy primary", rep.RecommendErrors)
		}
		if len(rep.ReplicaDigests) != 2 {
			t.Fatalf("got %d replica digests, want 2", len(rep.ReplicaDigests))
		}
	},
	"breaker-trip-recover": func(t *testing.T, rep *Report) {
		if rep.InjectedFaults == 0 {
			t.Error("outage window injected no faults — scenario is vacuous")
		}
		if rep.BreakerTrips == 0 {
			t.Error("outage never tripped the breaker")
		}
		if rep.BreakerResets == 0 {
			t.Error("breaker never closed again — no half-open probe succeeded after the outage window")
		}
		if rep.Retries == 0 {
			t.Error("no operation was ever retried — the retry layer never engaged")
		}
		if rep.Spouted != rep.Acked+rep.FailedTrees || rep.Unresolved != 0 {
			t.Errorf("trees unaccounted: spouted %d, acked %d + failed %d, unresolved %d",
				rep.Spouted, rep.Acked, rep.FailedTrees, rep.Unresolved)
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors after the breaker reset", rep.RecommendErrors)
		}
	},
	"reward-starvation": func(t *testing.T, rep *Report) {
		if rep.ExplorePulls == 0 {
			t.Error("exploration charged no pulls — the policy never served")
		}
		if rep.ExploreWins != 0 {
			t.Errorf("starved run recorded %v wins, want 0 — a reward leaked in from nowhere", rep.ExploreWins)
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors — an empty reward state broke serving", rep.RecommendErrors)
		}
		if rep.Degraded != 0 {
			t.Errorf("%d responses degraded under starvation, want 0 — priors must be enough to serve", rep.Degraded)
		}
	},
	"explore-feedback": func(t *testing.T, rep *Report) {
		if rep.ExplorePulls == 0 {
			t.Error("exploration charged no pulls — the policy never served")
		}
		if rep.ExploreWins == 0 {
			t.Error("feedback clicks moved no posteriors — the reward line never closed the loop")
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors during the explore-feedback run", rep.RecommendErrors)
		}
		if rep.FailedTrees != 0 {
			t.Errorf("feedback run failed %d tuple trees, want 0", rep.FailedTrees)
		}
	},
	"explore-blackout": func(t *testing.T, rep *Report) {
		if rep.InjectedFaults == 0 {
			t.Error("serving-phase blackout injected no faults — scenario is vacuous")
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors — availability broke under the model blackout", rep.RecommendErrors)
		}
		if rep.Degraded != rep.Recommends {
			t.Errorf("%d of %d responses degraded, want all", rep.Degraded, rep.Recommends)
		}
		if rep.ExplorePulls != 0 {
			t.Errorf("degraded serving charged %v pulls, want 0 — a Degraded response sampled the policy", rep.ExplorePulls)
		}
	},
	"quantized-serving": func(t *testing.T, rep *Report) {
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors on the quantized path, want 0", rep.RecommendErrors)
		}
		if rep.Degraded != 0 {
			t.Errorf("%d responses degraded on the quantized path, want 0", rep.Degraded)
		}
		if rep.Recommends == 0 {
			t.Error("quantized run served nothing")
		}
	},
	"ann-retrieval": func(t *testing.T, rep *Report) {
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors with ANN retrieval on, want 0", rep.RecommendErrors)
		}
		if rep.Degraded != 0 {
			t.Errorf("%d responses degraded with ANN retrieval on, want 0", rep.Degraded)
		}
		if rep.Recommends == 0 {
			t.Error("ANN run served nothing")
		}
	},
	"shard-loss": func(t *testing.T, rep *Report) {
		if rep.InjectedFaults == 0 {
			t.Error("shard primary outage injected no faults — scenario is vacuous")
		}
		if rep.ShardPromotes == 0 {
			t.Error("dead primary never promoted its backup")
		}
		if rep.FailedTrees != 0 {
			t.Errorf("shard loss failed %d tuple trees despite a live backup", rep.FailedTrees)
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors despite a live backup", rep.RecommendErrors)
		}
		if len(rep.ReplicaDigests) != 4 {
			t.Fatalf("got %d replica digests, want 4", len(rep.ReplicaDigests))
		}
	},
	"rebalance-mid-serving": func(t *testing.T, rep *Report) {
		if want := uint64(2 * rep.Scenario.RebalanceSlots); rep.ShardRebalances != want {
			t.Errorf("completed %d slot migrations, want %d", rep.ShardRebalances, want)
		}
		if rep.ShardMovedKeys == 0 {
			t.Error("migrations moved no keys — scenario is vacuous")
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors during live rebalance, want 0 — a read was dropped", rep.RecommendErrors)
		}
		if rep.Degraded != 0 {
			t.Errorf("%d responses degraded during live rebalance, want 0", rep.Degraded)
		}
	},
	"split-brain": func(t *testing.T, rep *Report) {
		if want := uint64(rep.Scenario.RebalanceSlots); rep.ShardRebalances != want {
			t.Errorf("completed %d slot migrations, want %d", rep.ShardRebalances, want)
		}
		if rep.ShardMovedKeys == 0 {
			t.Error("migration moved no keys — scenario is vacuous")
		}
		if rep.ShardRedirects == 0 {
			t.Error("no client ever drew an ErrWrongServer redirect")
		}
		if rep.FailedTrees != 0 {
			t.Errorf("mid-replay migration failed %d tuple trees, want 0 — frozen writes must park and retry", rep.FailedTrees)
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors after the migration, want 0", rep.RecommendErrors)
		}
	},
	"degraded-serving": func(t *testing.T, rep *Report) {
		if rep.InjectedFaults == 0 {
			t.Error("serving-phase blackout injected no faults — scenario is vacuous")
		}
		if rep.RecommendErrors != 0 {
			t.Errorf("%d recommend errors — availability broke under the model blackout", rep.RecommendErrors)
		}
		if rep.Degraded == 0 {
			t.Error("no response was marked Degraded under a total model outage")
		}
		if rep.Degraded != rep.Recommends {
			t.Errorf("%d of %d responses degraded, want all — some personalized path dodged the blackout", rep.Degraded, rep.Recommends)
		}
	},
}

// TestScenarios runs the full matrix: every named scenario must complete
// with zero invariant violations, and the fault scenarios must prove they
// actually injected faults.
func TestScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, violation := range rep.Violations {
				t.Errorf("invariant violated: %s", violation)
			}
			if rep.Actions == 0 || rep.Spouted == 0 {
				t.Errorf("scenario replayed nothing: %d actions, %d spouted", rep.Actions, rep.Spouted)
			}
			if check := expectations[sc.Name]; check != nil {
				check(t, rep)
			}
			t.Logf("actions=%d spouted=%d acked=%d failedTrees=%d kvOps=%d faults=%d recommends=%d/%d digest=%s",
				rep.Actions, rep.Spouted, rep.Acked, rep.FailedTrees,
				rep.KVOps, rep.InjectedFaults, rep.Recommends, rep.Recommends+rep.RecommendErrors,
				rep.Digest[:12])
		})
	}
}

// TestReplayDeterminism runs the determinism scenario twice and demands
// byte-identical canonical model state (compared through its SHA-256) and
// identical accounting — the property every future optimisation must
// preserve to claim behavioural equivalence.
func TestReplayDeterminism(t *testing.T) {
	var sc Scenario
	for _, s := range Scenarios() {
		if s.Name == "replay-determinism" {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatal("replay-determinism scenario missing from matrix")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	first, err := Run(ctx, sc)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := Run(ctx, sc)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if first.Digest != second.Digest {
		t.Errorf("state digests differ across same-seed runs:\n  first:  %s\n  second: %s", first.Digest, second.Digest)
	}
	if first.ServeDigest != second.ServeDigest {
		t.Errorf("served-output digests differ across same-seed runs:\n  first:  %s\n  second: %s", first.ServeDigest, second.ServeDigest)
	}
	if first.Spouted != second.Spouted || first.Acked != second.Acked || first.FailedTrees != second.FailedTrees {
		t.Errorf("accounting differs: first {spouted %d acked %d failed %d}, second {spouted %d acked %d failed %d}",
			first.Spouted, first.Acked, first.FailedTrees, second.Spouted, second.Acked, second.FailedTrees)
	}
	if first.Recommends != second.Recommends {
		t.Errorf("recommend successes differ: %d vs %d", first.Recommends, second.Recommends)
	}
}

// TestCacheTransparency runs the serialized determinism scenario with the
// decoded-value read cache enabled (the default) and disabled, and demands
// identical written state AND identical served lists. This is the
// end-to-end proof that write-through invalidation keeps the cache
// coherent: a single stale cached object — in the training reads that feed
// similar-table writes, or in the serving reads — would split the digests.
// (Only fault-free scenarios are comparable this way: cached reads never
// reach the fault injector, so under injection the two runs see different
// fault landings by construction.)
func TestCacheTransparency(t *testing.T) {
	var sc Scenario
	for _, s := range Scenarios() {
		if s.Name == "replay-determinism" {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatal("replay-determinism scenario missing from matrix")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	cached, err := Run(ctx, sc)
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	sc.DisableCache = true
	uncached, err := Run(ctx, sc)
	if err != nil {
		t.Fatalf("uncached run: %v", err)
	}
	if cached.Digest != uncached.Digest {
		t.Errorf("state digests differ with cache on/off:\n  cached:   %s\n  uncached: %s", cached.Digest, uncached.Digest)
	}
	if cached.ServeDigest != uncached.ServeDigest {
		t.Errorf("served-output digests differ with cache on/off:\n  cached:   %s\n  uncached: %s", cached.ServeDigest, uncached.ServeDigest)
	}
	if cached.Recommends != uncached.Recommends || cached.RecommendErrors != uncached.RecommendErrors {
		t.Errorf("serving accounting differs: cached %d/%d errors, uncached %d/%d errors",
			cached.Recommends, cached.RecommendErrors, uncached.Recommends, uncached.RecommendErrors)
	}
	// The cached run must actually have exercised the cache, or the
	// comparison is vacuous.
	if cached.KVOps >= uncached.KVOps {
		t.Errorf("cache saved no store operations: %d cached vs %d uncached — transparency test is vacuous", cached.KVOps, uncached.KVOps)
	}
}

// TestShardedTierMatchesUnpartitioned is the storage tier's equivalence
// oracle: each sharded scenario — a replica lost, a primary lost, slots moved
// under serving traffic — must produce byte-identical trained state AND
// served output to the very same workload on one unpartitioned store with no
// faults and no moves. Synchronous replication means a surviving replica
// holds every write the group ever acknowledged, promotion surfaces no error
// to the pipeline, and the freeze→transfer→flip handoff never fails a read
// and moves state byte for byte — so neither the partitioning, nor the
// failover, nor the move may shift a single byte. Each case carries its
// negative controls: the tier must really have done the work (engaged > 0),
// and where a replica was killed, faults must have landed and the dead
// replica's own digest must differ from its group's survivor.
func TestShardedTierMatchesUnpartitioned(t *testing.T) {
	cases := []struct {
		scenario       string
		dead, survivor int // ReplicaDigests indices; dead < 0 when nothing dies
		engaged        string
		work           func(*Report) uint64
	}{
		{"replica-failover", 1, 0, "backup replications skipped", func(r *Report) uint64 { return r.ShardSyncSkips }},
		{"shard-loss", 2, 3, "promotions", func(r *Report) uint64 { return r.ShardPromotes }},
		{"rebalance-mid-serving", -1, -1, "moved keys", func(r *Report) uint64 { return r.ShardMovedKeys }},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			var sc Scenario
			for _, s := range Scenarios() {
				if s.Name == tc.scenario {
					sc = s
				}
			}
			if sc.Name == "" {
				t.Fatalf("%s scenario missing from matrix", tc.scenario)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			tier, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("sharded run: %v", err)
			}
			sc.Shards, sc.ShardFaults = 0, nil
			sc.RebalanceAfterActions, sc.RebalanceDuringServe, sc.RebalanceSlots, sc.StaleRouter = 0, false, 0, false
			flat, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("unpartitioned fault-free run: %v", err)
			}
			if tier.Digest != flat.Digest {
				t.Errorf("state digests differ between the sharded run and the unpartitioned run:\n  sharded: %s\n  local:   %s",
					tier.Digest, flat.Digest)
			}
			if tier.ServeDigest != flat.ServeDigest {
				t.Errorf("served-output digests differ between the sharded run and the unpartitioned run:\n  sharded: %s\n  local:   %s",
					tier.ServeDigest, flat.ServeDigest)
			}
			if tier.Degraded != 0 || flat.Degraded != 0 {
				t.Errorf("degraded responses with a live replica in every group: sharded %d, unpartitioned %d", tier.Degraded, flat.Degraded)
			}
			if tier.Violations != nil || flat.Violations != nil {
				t.Errorf("invariant violations: sharded %v, unpartitioned %v", tier.Violations, flat.Violations)
			}
			// Negative controls: the comparison is vacuous unless the tier
			// really failed over or moved state.
			if tc.work(tier) == 0 {
				t.Errorf("sharded run made no %s — the comparison is vacuous", tc.engaged)
			}
			if tc.dead < 0 {
				return
			}
			if tier.InjectedFaults == 0 {
				t.Error("sharded run injected nothing — the comparison is vacuous")
			}
			if d := tier.ReplicaDigests; len(d) <= max(tc.dead, tc.survivor) || d[tc.dead] == d[tc.survivor] {
				t.Errorf("dead replica %d's digest matches its survivor's — the outage changed nothing (%d digests)", tc.dead, len(d))
			}
		})
	}
}

// TestExploreDeterminism runs each exploration scenario twice and demands
// byte-identical state AND served-output digests — the ServeDigest folds in
// the per-slot arm tags, so a single diverging Thompson draw anywhere in the
// request phase splits it. This is the replay guarantee for the seeded
// policy RNG and the virtual-clock reward stamps.
func TestExploreDeterminism(t *testing.T) {
	for _, name := range []string{"reward-starvation", "explore-feedback"} {
		t.Run(name, func(t *testing.T) {
			var sc Scenario
			for _, s := range Scenarios() {
				if s.Name == name {
					sc = s
				}
			}
			if sc.Name == "" {
				t.Fatalf("%s scenario missing from matrix", name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			first, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if first.Digest != second.Digest {
				t.Errorf("state digests differ across same-seed explore runs:\n  first:  %s\n  second: %s", first.Digest, second.Digest)
			}
			if first.ServeDigest != second.ServeDigest {
				t.Errorf("served-output digests differ across same-seed explore runs:\n  first:  %s\n  second: %s", first.ServeDigest, second.ServeDigest)
			}
			if first.ExplorePulls != second.ExplorePulls || first.ExploreWins != second.ExploreWins {
				t.Errorf("reward accounting differs: first {pulls %v wins %v}, second {pulls %v wins %v}",
					first.ExplorePulls, first.ExploreWins, second.ExplorePulls, second.ExploreWins)
			}
		})
	}
}

// TestQuantizedDeterminism runs the quantized and ANN scenarios twice and
// demands byte-identical state AND served-output digests: the integer
// kernel is exact and the LSH probe is seed-derived, so neither path may
// introduce a single diverging bit across same-seed replays.
func TestQuantizedDeterminism(t *testing.T) {
	for _, name := range []string{"quantized-serving", "ann-retrieval"} {
		t.Run(name, func(t *testing.T) {
			var sc Scenario
			for _, s := range Scenarios() {
				if s.Name == name {
					sc = s
				}
			}
			if sc.Name == "" {
				t.Fatalf("%s scenario missing from matrix", name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			first, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if first.Digest != second.Digest {
				t.Errorf("state digests differ across same-seed quantized runs:\n  first:  %s\n  second: %s", first.Digest, second.Digest)
			}
			if first.ServeDigest != second.ServeDigest {
				t.Errorf("served-output digests differ across same-seed quantized runs:\n  first:  %s\n  second: %s", first.ServeDigest, second.ServeDigest)
			}
		})
	}
}

// TestANNTrainingTransparency proves the serve-only knobs leave trained
// state alone: each scenario run with a knob switched off must leave the
// byte-identical state digest of its run as declared, so every case equals
// the run with both knobs off. ANN's LSH index lives beside the store (fed
// by the item-vector hook), never in it; the int8 item table quantizes the
// float parameters the store already holds and writes nothing of its own.
// Only the state digest is compared — served output legitimately differs
// with an extra candidate source or a quantized score.
func TestANNTrainingTransparency(t *testing.T) {
	type knobs struct{ ann, quantized bool }
	scenarios := make(map[string]Scenario)
	for _, s := range Scenarios() {
		scenarios[s.Name] = s
	}
	for _, tc := range []struct {
		scenario string
		variants []knobs
	}{
		{"ann-retrieval", []knobs{{false, true}, {true, false}, {false, false}}},
		{"quantized-serving", []knobs{{false, false}}},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			sc, ok := scenarios[tc.scenario]
			if !ok {
				t.Fatalf("%s scenario missing from matrix", tc.scenario)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			declared, err := Run(ctx, sc)
			if err != nil {
				t.Fatalf("declared run: %v", err)
			}
			for _, k := range tc.variants {
				t.Run(fmt.Sprintf("ann=%v,quantized=%v", k.ann, k.quantized), func(t *testing.T) {
					v := sc
					v.ANN, v.Quantized = k.ann, k.quantized
					variant, err := Run(ctx, v)
					if err != nil {
						t.Fatalf("variant run: %v", err)
					}
					if declared.Digest != variant.Digest {
						t.Errorf("state digests differ — a serve-only knob leaked into training state:\n  declared: %s\n  variant:  %s", declared.Digest, variant.Digest)
					}
					if declared.Recommends != variant.Recommends || declared.RecommendErrors != variant.RecommendErrors {
						t.Errorf("serving accounting differs: declared %d/%d errors, variant %d/%d errors",
							declared.Recommends, declared.RecommendErrors, variant.Recommends, variant.RecommendErrors)
					}
				})
			}
		})
	}
}

// TestDifferentSeedsDiverge is the negative control for the determinism
// oracle: two seeds must not land on the same state digest, otherwise the
// digest is insensitive and the determinism test proves nothing.
func TestDifferentSeedsDiverge(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	base := Scenario{Name: "diverge-a", Seed: 1, Parallelism: serialParallelism(), MaxPending: 1, Tracked: true, Synchronous: true}
	other := base
	other.Name, other.Seed = "diverge-b", 2

	a, err := Run(ctx, base)
	if err != nil {
		t.Fatalf("seed 1 run: %v", err)
	}
	b, err := Run(ctx, other)
	if err != nil {
		t.Fatalf("seed 2 run: %v", err)
	}
	if a.Digest == b.Digest {
		t.Errorf("different seeds produced identical digest %s — oracle is blind", a.Digest)
	}
}

// TestScenarioValidation pins the withDefaults error cases.
func TestScenarioValidation(t *testing.T) {
	if _, err := (Scenario{}).withDefaults(); err == nil {
		t.Error("unnamed scenario accepted")
	}
	bad := Scenario{Name: "two-spouts", Parallelism: topology.Parallelism{
		Spout: 2, ComputeMF: 1, MFStorage: 1, UserHistory: 1, GetItemPairs: 1, ItemPairSim: 1, ResultStorage: 1,
	}}
	if _, err := bad.withDefaults(); err == nil {
		t.Error("multi-spout scenario accepted — replay order would be nondeterministic")
	}
	if _, err := (Scenario{Name: "x", Transport: "carrier-pigeon"}).withDefaults(); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := (Scenario{Name: "x", Shards: 1}).withDefaults(); err != nil {
		t.Errorf("one-group tier rejected: %v", err)
	}
	if _, err := (Scenario{Name: "x", Shards: 1, RebalanceDuringServe: true}).withDefaults(); err == nil {
		t.Error("rebalance accepted on a one-group tier — there is no second group to move slots to")
	}
}

// TestFaultScheduleScoping pins the fault-phase semantics the scenarios
// depend on: op-counted phases and key-prefix scoping.
func TestFaultScheduleScoping(t *testing.T) {
	ctx := context.Background()
	f := kvstore.NewFaulty(kvstore.NewLocal(4), 42)
	f.SetSchedule([]kvstore.FaultPhase{
		{Ops: 2},
		{Ops: 0, FailRate: 1, KeyPrefix: "sys.hot"},
	})
	// Phase one: everything succeeds.
	if err := f.Set(ctx, "sys.hot:g", []byte("x")); err != nil {
		t.Fatalf("op 1 failed inside quiet phase: %v", err)
	}
	if err := f.Set(ctx, "sys.hist:u", []byte("x")); err != nil {
		t.Fatalf("op 2 failed inside quiet phase: %v", err)
	}
	// Phase two: only the hot namespace fails.
	if err := f.Set(ctx, "sys.hot:g", []byte("x")); err == nil {
		t.Error("prefixed key survived a FailRate-1 phase")
	}
	if err := f.Set(ctx, "sys.hist:u", []byte("x")); err != nil {
		t.Errorf("non-prefixed key failed in a scoped phase: %v", err)
	}

	// A scoped lead-in counts only the operations on its prefix: other
	// traffic, however much of it, never moves the outage's start.
	f.SetSchedule([]kvstore.FaultPhase{
		{Ops: 2, KeyPrefix: "sys.hot"},
		{Ops: 0, FailRate: 1, KeyPrefix: "sys.hot"},
	})
	for i := 0; i < 5; i++ {
		if err := f.Set(ctx, "sys.hist:u", []byte("x")); err != nil {
			t.Fatalf("unscoped op %d failed: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := f.Set(ctx, "sys.hot:g", []byte("x")); err != nil {
			t.Fatalf("scoped lead-in op %d failed after unscoped traffic: %v", i+1, err)
		}
	}
	if err := f.Set(ctx, "sys.hot:g", []byte("x")); err == nil {
		t.Error("third scoped op survived: the lead-in counted more than its prefix's ops")
	}
	if got := f.Ops(); got != 8 {
		t.Errorf("Ops() = %d, want 8: every operation still counts toward the total", got)
	}
}
