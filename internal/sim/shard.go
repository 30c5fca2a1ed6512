package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"vidrec/internal/kvstore"
)

// shardCluster is the sharded storage tier: Shards primary/backup groups of
// Locals, each replica behind its own fault injector (and optional Resilient
// decorator), composed under a Coordinator and fronted by a Sharded router
// the pipeline uses as its store. The harness keeps every layer by hand so
// it can schedule faults per replica, drive rebalances mid-run, and digest
// the merged state afterwards.
type shardCluster struct {
	groups    []*kvstore.ShardGroup
	bases     [][]*kvstore.Local // [group][role]; role 0 primary, 1 backup
	faulties  [][]*kvstore.Faulty
	coord     *kvstore.Coordinator
	router    *kvstore.Sharded
	stale     *kvstore.Sharded // second client, built on the v1 map; nil unless sc.StaleRouter
	resilient []*kvstore.Resilient

	mu        sync.Mutex
	movedKeys int      // guarded by mu
	errs      []string // guarded by mu; rebalance-hook failures become violations
}

// shardFaultSeed derives the injector seed for one shard replica, mixing
// the flat replica index (group*2 + role) with a Weyl increment.
func shardFaultSeed(seed uint64, group, role int) uint64 {
	return seed ^ 0x5A4D ^ (uint64(group*2+role+1) * 0x9E3779B97F4A7C15)
}

// newShardCluster assembles the sharded storage stack for a scenario. The
// per-replica chain mirrors the unsharded one — Local, fault injector,
// optional Resilient decorator — so each replica composes under the same
// retry/breaker machinery, below its group.
func newShardCluster(sc Scenario, vclock *VirtualClock) (*shardCluster, error) {
	c := &shardCluster{}
	for gi := 0; gi < sc.Shards; gi++ {
		replicas := make([]kvstore.Store, 2)
		c.bases = append(c.bases, make([]*kvstore.Local, 2))
		c.faulties = append(c.faulties, make([]*kvstore.Faulty, 2))
		for role := 0; role < 2; role++ {
			base := kvstore.NewLocal(32)
			faulty := kvstore.NewFaulty(base, shardFaultSeed(sc.Seed, gi, role))
			c.bases[gi][role] = base
			c.faulties[gi][role] = faulty
			replicas[role] = faulty
			if sc.Resilience != nil {
				r := newSimResilient(faulty, *sc.Resilience, shardFaultSeed(sc.Seed, gi, role)^0xB0FF, vclock)
				c.resilient = append(c.resilient, r)
				replicas[role] = r
			}
		}
		g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", gi), replicas...)
		if err != nil {
			return nil, fmt.Errorf("sim: build shard group %d: %w", gi, err)
		}
		c.groups = append(c.groups, g)
	}
	coord, err := kvstore.NewCoordinator(c.groups...)
	if err != nil {
		return nil, fmt.Errorf("sim: build shard coordinator: %w", err)
	}
	c.coord = coord
	router, err := kvstore.NewSharded(coord, sc.Seed|1)
	if err != nil {
		return nil, fmt.Errorf("sim: build shard router: %w", err)
	}
	c.router = router
	if sc.StaleRouter {
		stale, err := kvstore.NewSharded(coord, (sc.Seed|1)^0x57A1E)
		if err != nil {
			return nil, fmt.Errorf("sim: build stale shard router: %w", err)
		}
		c.stale = stale
	}
	return c, nil
}

// arm installs each replica's replay-phase fault schedule. Indices into
// ShardFaults are group*2 + role; missing or nil entries run fault-free.
func (c *shardCluster) arm(sc Scenario) {
	for gi := range c.faulties {
		for role := range c.faulties[gi] {
			var phases []kvstore.FaultPhase
			if i := gi*2 + role; i < len(sc.ShardFaults) {
				phases = sc.ShardFaults[i]
			}
			c.faulties[gi][role].SetSchedule(phases)
		}
	}
}

// moveSlots migrates n slots off group 0 onto group 1 (lowest slot numbers
// first, so the move set is deterministic), recording any failure as a
// violation rather than tearing down the run — a botched rebalance is
// exactly what the scenario exists to surface.
func (c *shardCluster) moveSlots(ctx context.Context, n int) {
	m, _ := c.coord.View()
	moved := 0
	for s := 0; s < kvstore.NumShardSlots && moved < n; s++ {
		if m.GroupFor(s) != 0 {
			continue
		}
		keys, err := c.coord.Rebalance(ctx, s, c.groups[1].Name())
		if err != nil {
			c.mu.Lock()
			c.errs = append(c.errs, fmt.Sprintf("rebalance slot %d: %v", s, err))
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		c.movedKeys += keys
		c.mu.Unlock()
		moved++
	}
}

// probeStale drives every stored key through the stale router after
// quiescence: a client still routing on the pre-rebalance map must draw
// ErrWrongServer internally, refresh, and answer every read correctly —
// the split-brain recovery contract. Returns violations.
func (c *shardCluster) probeStale(ctx context.Context) []string {
	if c.stale == nil {
		return nil
	}
	var violations []string
	startVersion := c.stale.MapVersion()
	if cur := c.coord.Stats().Version; startVersion >= cur {
		violations = append(violations,
			fmt.Sprintf("stale-router probe is vacuous: router at map v%d, coordinator at v%d", startVersion, cur))
	}
	keys := c.allKeys()
	for _, k := range keys {
		want, ok, err := c.router.Get(ctx, k)
		if err != nil || !ok {
			violations = append(violations, fmt.Sprintf("fresh router lost key %q: ok=%v err=%v", k, ok, err))
			continue
		}
		got, ok, err := c.stale.Get(ctx, k)
		if err != nil {
			violations = append(violations, fmt.Sprintf("stale router read %q: %v", k, err))
			continue
		}
		if !ok || string(got) != string(want) {
			violations = append(violations, fmt.Sprintf("stale router read %q diverged", k))
		}
	}
	if c.stale.MapVersion() != c.coord.Stats().Version {
		violations = append(violations, fmt.Sprintf("stale router never caught up: at map v%d, coordinator at v%d",
			c.stale.MapVersion(), c.coord.Stats().Version))
	}
	if c.stale.Stats().Redirects == 0 {
		violations = append(violations, "stale router drew no ErrWrongServer redirects — split-brain probe is vacuous")
	}
	return violations
}

// allKeys returns every key in the cluster (each group's acting primary),
// sorted for a deterministic probe order.
func (c *shardCluster) allKeys() []string {
	var keys []string
	for gi, g := range c.groups {
		c.bases[gi][g.PrimaryIndex()].ForEach(func(k string, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
	}
	sort.Strings(keys)
	return keys
}

// merged copies every group's acting-primary state into one Local — the
// union the digest and invariant checkers run on. Slots are disjoint across
// groups (the routing invariant), so the union is exactly the state an
// unpartitioned run would hold.
func (c *shardCluster) merged(ctx context.Context) (*kvstore.Local, error) {
	m := kvstore.NewLocal(32)
	for gi, g := range c.groups {
		var err error
		c.bases[gi][g.PrimaryIndex()].ForEach(func(k string, v []byte) bool {
			err = m.Set(ctx, k, v)
			return err == nil
		})
		if err != nil {
			return nil, fmt.Errorf("sim: merge shard state: %w", err)
		}
	}
	return m, nil
}

// report folds the cluster's counters into rep: every replica's injector
// and decorator, every group, the routers and the coordinator, plus each
// replica's own state digest.
func (c *shardCluster) report(rep *Report) {
	for gi, g := range c.groups {
		for role, f := range c.faulties[gi] {
			rep.KVOps += f.Ops()
			rep.InjectedFaults += f.Injected()
			rep.ReplicaDigests = append(rep.ReplicaDigests, StateDigest(c.bases[gi][role]))
		}
		gs := g.Stats()
		rep.ShardPromotes += gs.Promotes
		rep.ShardSyncSkips += gs.SyncSkips
		rep.ShardDedupHits += gs.DedupHits
		rep.ReadFallbacks += gs.ReadFallbacks
	}
	for _, r := range c.resilient {
		rep.addResilience(r)
	}
	rep.ShardRedirects = c.router.Stats().Redirects
	if c.stale != nil {
		rep.ShardRedirects += c.stale.Stats().Redirects
	}
	cs := c.coord.Stats()
	rep.ShardRebalances = cs.Rebalances
	rep.ShardMovedKeys = cs.MovedKeys
}

// hookViolations drains rebalance-hook failures.
func (c *shardCluster) hookViolations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.errs...)
}

// moved reports how many keys the rebalance hooks migrated.
func (c *shardCluster) moved() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.movedKeys
}
