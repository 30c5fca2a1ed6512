package kvstore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestCluster builds n shard groups of two Local replicas each under a
// coordinator, returning the router, the coordinator, the groups, and the
// raw replica stores (replicas[group][role]).
func newTestCluster(t *testing.T, n int) (*Sharded, *Coordinator, []*ShardGroup, [][]*Local) {
	t.Helper()
	groups := make([]*ShardGroup, n)
	locals := make([][]*Local, n)
	for i := 0; i < n; i++ {
		locals[i] = []*Local{NewLocal(4), NewLocal(4)}
		g, err := NewShardGroup(fmt.Sprintf("g%d", i), locals[i][0], locals[i][1])
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	coord, err := NewCoordinator(groups...)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewSharded(coord, 1)
	if err != nil {
		t.Fatal(err)
	}
	return router, coord, groups, locals
}

// dumpLocal snapshots a Local's full contents.
func dumpLocal(l *Local) map[string]string {
	out := make(map[string]string)
	l.ForEach(func(k string, v []byte) bool {
		out[k] = string(v)
		return true
	})
	return out
}

func fillKeys(t *testing.T, s Store, n int) map[string]string {
	t.Helper()
	ctx := context.Background()
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("ns:key%04d", i)
		v := fmt.Sprintf("val%04d", i)
		if err := s.Set(ctx, k, []byte(v)); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
		want[k] = v
	}
	return want
}

func TestShardedBasicOps(t *testing.T) {
	ctx := context.Background()
	router, _, groups, _ := newTestCluster(t, 3)
	want := fillKeys(t, router, 200)

	for _, g := range groups {
		if g.OwnedSlots() == 0 {
			t.Errorf("group %s owns no slots", g.Name())
		}
	}
	for k, v := range want {
		got, ok, err := router.Get(ctx, k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("get %s = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
	if n, err := router.Len(ctx); err != nil || n != len(want) {
		t.Fatalf("len = %d,%v want %d", n, err, len(want))
	}

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	keys = append(keys, "ns:absent")
	vals, err := router.MGet(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if k == "ns:absent" {
			if vals[i] != nil {
				t.Errorf("absent key returned %q", vals[i])
			}
			continue
		}
		if string(vals[i]) != want[k] {
			t.Errorf("mget %s = %q want %q", k, vals[i], want[k])
		}
	}

	if err := router.Update(ctx, "ns:key0000", func(cur []byte, exists bool) ([]byte, bool) {
		if !exists {
			t.Error("update saw missing key")
		}
		return append(cur, '!'), true
	}); err != nil {
		t.Fatal(err)
	}
	got, _, err := router.Get(ctx, "ns:key0000")
	if err != nil || string(got) != want["ns:key0000"]+"!" {
		t.Fatalf("after update: %q, %v", got, err)
	}

	existed, err := router.Delete(ctx, "ns:key0001")
	if err != nil || !existed {
		t.Fatalf("delete = %v,%v", existed, err)
	}
	if _, ok, _ := router.Get(ctx, "ns:key0001"); ok {
		t.Error("deleted key still present")
	}
	if n, _ := router.Len(ctx); n != len(want)-1 {
		t.Errorf("len after delete = %d want %d", n, len(want)-1)
	}

	// Update deciding to drop the key exercises the delete replication arm.
	if err := router.Update(ctx, "ns:key0002", func([]byte, bool) ([]byte, bool) {
		return nil, false
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := router.Get(ctx, "ns:key0002"); ok {
		t.Error("update-deleted key still present")
	}
}

func TestShardGroupBackupsMirrorPrimary(t *testing.T) {
	router, _, _, locals := newTestCluster(t, 2)
	fillKeys(t, router, 100)
	for gi := range locals {
		p, b := dumpLocal(locals[gi][0]), dumpLocal(locals[gi][1])
		if len(p) == 0 {
			t.Errorf("group %d primary is empty", gi)
		}
		if fmt.Sprint(p) != fmt.Sprint(b) {
			t.Errorf("group %d backup diverges from primary: %d vs %d keys", gi, len(p), len(b))
		}
	}
}

func TestShardGroupFailoverAndRejoin(t *testing.T) {
	ctx := context.Background()
	// Group 0's primary dies after 40 operations; the backup must take over
	// without a single failed write.
	primary := NewLocal(4)
	backup := NewLocal(4)
	faulty := NewFaulty(primary, 99)
	g0, err := NewShardGroup("g0", faulty, backup)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := NewShardGroup("g1", NewLocal(4), NewLocal(4))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(g0, g1)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewSharded(coord, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetSchedule([]FaultPhase{{Ops: 40}, {FailRate: 1}})

	want := fillKeys(t, router, 300)
	if got := g0.Stats().Promotes; got != 1 {
		t.Fatalf("promotes = %d, want 1", got)
	}
	if g0.PrimaryIndex() != 1 {
		t.Fatalf("primary index = %d, want 1", g0.PrimaryIndex())
	}
	// A key is deleted while the old primary is down: Rejoin must replay the
	// missed delete, not just copy state.
	if _, err := router.Delete(ctx, "ns:key0000"); err != nil {
		t.Fatal(err)
	}
	delete(want, "ns:key0000")
	for k, v := range want {
		got, ok, err := router.Get(ctx, k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("get %s after failover = %q,%v,%v", k, got, ok, err)
		}
	}

	// The dead replica recovers: catch it up and check byte equality with
	// the acting primary.
	faulty.SetSchedule(nil)
	if err := g0.Rejoin(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dumpLocal(primary)) != fmt.Sprint(dumpLocal(backup)) {
		t.Fatal("rejoined replica diverges from acting primary")
	}
	if _, ok := dumpLocal(primary)["ns:key0000"]; ok {
		t.Fatal("rejoin resurrected a deleted key")
	}
	// Rejoin of a live replica is a no-op; out-of-range replica is an error.
	if err := g0.Rejoin(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := g0.Rejoin(ctx, 5); err == nil {
		t.Fatal("rejoin of unknown replica accepted")
	}
}

func TestRebalanceMovesSlot(t *testing.T) {
	ctx := context.Background()
	router, coord, _, locals := newTestCluster(t, 2)
	want := fillKeys(t, router, 300)

	// Pick a populated slot owned by group 0.
	m, _ := coord.View()
	slot := -1
	for k := range want {
		if s := SlotForKey(k); m.GroupFor(s) == 0 {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatal("no populated slot on group 0")
	}
	moved, err := coord.Rebalance(ctx, slot, "g1")
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved no keys")
	}
	if v := coord.Stats(); v.Version != 2 || v.Rebalances != 1 || v.MovedKeys != uint64(moved) {
		t.Fatalf("coordinator stats = %+v", v)
	}

	// Every key still reads back through the router; the moved keys now
	// live on group 1's replicas and are gone from group 0's.
	for k, v := range want {
		got, ok, err := router.Get(ctx, k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("get %s after rebalance = %q,%v,%v", k, got, ok, err)
		}
		onSrc := dumpLocal(locals[0][0])[k] != "" || dumpLocal(locals[0][1])[k] != ""
		if SlotForKey(k) == slot && onSrc {
			t.Fatalf("moved key %s still on source group", k)
		}
	}
	if n, err := router.Len(ctx); err != nil || n != len(want) {
		t.Fatalf("len after rebalance = %d,%v want %d", n, err, len(want))
	}
	// Rebalancing a slot onto its current owner is a no-op; bad targets and
	// slots are errors.
	if n, err := coord.Rebalance(ctx, slot, "g1"); err != nil || n != 0 {
		t.Fatalf("no-op rebalance = %d,%v", n, err)
	}
	if _, err := coord.Rebalance(ctx, slot, "nope"); err == nil {
		t.Fatal("unknown target group accepted")
	}
	if _, err := coord.Rebalance(ctx, NumShardSlots, "g1"); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestStaleRouterRedirects(t *testing.T) {
	ctx := context.Background()
	router, coord, _, _ := newTestCluster(t, 2)
	want := fillKeys(t, router, 100)

	// A second client routes on the version-1 map...
	stale, err := NewSharded(coord, 2)
	if err != nil {
		t.Fatal(err)
	}
	// ...while four slots move underneath it.
	m, _ := coord.View()
	movedSlots := map[int]bool{}
	for s := 0; s < NumShardSlots && len(movedSlots) < 4; s++ {
		if m.GroupFor(s) == 0 {
			if _, err := coord.Rebalance(ctx, s, "g1"); err != nil {
				t.Fatal(err)
			}
			movedSlots[s] = true
		}
	}
	if stale.MapVersion() != 1 {
		t.Fatalf("stale router already at version %d", stale.MapVersion())
	}
	// Reads and writes through the stale router recover transparently.
	for k, v := range want {
		got, ok, err := stale.Get(ctx, k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("stale get %s = %q,%v,%v", k, got, ok, err)
		}
	}
	if err := stale.Set(ctx, "ns:new-key", []byte("nv")); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := router.Get(ctx, "ns:new-key"); !ok || string(got) != "nv" {
		t.Fatalf("write via stale router not visible: %q,%v", got, ok)
	}
	if stale.Stats().Redirects == 0 {
		t.Fatal("stale router recovered without drawing ErrWrongServer")
	}
	if stale.MapVersion() != coord.Stats().Version {
		t.Fatalf("stale router still at version %d, coordinator at %d", stale.MapVersion(), coord.Stats().Version)
	}
	// MGet spanning moved and unmoved slots recovers the same way.
	stale2, err := NewSharded(coord, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Regress the cluster back: move one slot again so stale2's fresh map
	// goes stale mid-test.
	for s := range movedSlots {
		if _, err := coord.Rebalance(ctx, s, "g0"); err != nil {
			t.Fatal(err)
		}
		break
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	vals, err := stale2.MGet(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if string(vals[i]) != want[k] {
			t.Errorf("stale mget %s = %q want %q", k, vals[i], want[k])
		}
	}
}

func TestFrozenSlotBlocksWritesNotReads(t *testing.T) {
	ctx := context.Background()
	router, _, groups, _ := newTestCluster(t, 2)
	want := fillKeys(t, router, 50)
	var key string
	for k := range want {
		key = k
		break
	}
	slot := SlotForKey(key)
	var g *ShardGroup
	for _, cand := range groups {
		if err := cand.read(ctx, slot, func(Store) error { return nil }); err == nil {
			g = cand
		}
	}
	g.freeze(slot)
	// Reads keep serving from a frozen slot.
	if got, ok, err := router.Get(ctx, key); err != nil || !ok || string(got) != want[key] {
		t.Fatalf("frozen read = %q,%v,%v", got, ok, err)
	}
	// Writes exhaust the retry bound — no coordinator move is in flight, so
	// the freeze never lifts and the router reports it instead of spinning
	// forever. The refused write appends, so an attempt that applied before
	// its refusal would show in the value.
	appendByte := func(cur []byte, _ bool) ([]byte, bool) { return append(cur, 'x'), true }
	if err := router.Update(ctx, key, appendByte); !errors.Is(err, ErrSlotFrozen) {
		t.Fatalf("frozen write error = %v", err)
	}
	if router.Stats().FrozenWaits == 0 {
		t.Fatal("frozen write drew no FrozenWaits")
	}
	if got, _, err := router.Get(ctx, key); err != nil || string(got) != want[key] {
		t.Fatalf("refused write applied: %s = %q,%v want %q", key, got, err, want[key])
	}
	g.unfreeze(slot)
	if err := router.Set(ctx, key, []byte("yes")); err != nil {
		t.Fatal(err)
	}
}

func TestShardedConstructorValidation(t *testing.T) {
	if _, err := NewShardGroup("", NewLocal(1)); err == nil {
		t.Error("unnamed group accepted")
	}
	if _, err := NewShardGroup("g0"); err == nil {
		t.Error("replica-less group accepted")
	}
	if _, err := NewShardGroup("g0", nil); err == nil {
		t.Error("nil replica accepted")
	}
	if _, err := NewCoordinator(); err == nil {
		t.Error("group-less coordinator accepted")
	}
	if _, err := NewCoordinator(nil); err == nil {
		t.Error("nil group accepted")
	}
	g0, _ := NewShardGroup("dup", NewLocal(1))
	g1, _ := NewShardGroup("dup", NewLocal(1))
	if _, err := NewCoordinator(g0, g1); err == nil {
		t.Error("duplicate group names accepted")
	}
	if _, err := NewSharded(nil, 1); err == nil {
		t.Error("nil coordinator accepted")
	}
}

// TestShardedConcurrentRebalance hammers the router from writer and reader
// goroutines while the coordinator migrates slots back and forth — the
// race-detector drill for the freeze→transfer→flip handoff. Readers must
// never see an error or a stale value for an already-written key.
//
// Writes carry no identity for a group to deduplicate on, so a retried
// write is safe only because ErrWrongServer and ErrSlotFrozen come back
// before anything applies. Each writer therefore also appends one byte to
// its own counter key through an Update, a write that shows a double apply,
// with the counter placed in the band of slots that moves every round: at
// the end each counter must be exactly as long as its writer's acknowledged
// appends.
func TestShardedConcurrentRebalance(t *testing.T) {
	ctx := context.Background()
	router, coord, _, _ := newTestCluster(t, 3)
	seed := fillKeys(t, router, 120)

	const writers, movingSlots = 4, 24
	var (
		wg      sync.WaitGroup
		acked   [writers]atomic.Int64
		routers [writers]*Sharded
		counter [writers]string
	)
	stop := make(chan struct{})
	errc := make(chan error, 16)
	appendByte := func(cur []byte, _ bool) ([]byte, bool) { return append(cur, 'x'), true }
	for w := 0; w < writers; w++ {
		// Per-goroutine routers model independent clients; distinct key
		// ranges keep the single-writer-per-key discipline.
		r, err := NewSharded(coord, 1)
		if err != nil {
			t.Fatal(err)
		}
		routers[w] = r
		for j := 0; counter[w] == ""; j++ {
			if k := fmt.Sprintf("w%d:counter%d", w, j); SlotForKey(k) < movingSlots {
				counter[w] = k
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := routers[w]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d:key%04d", w, i%50)
				if err := r.Set(ctx, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if err := r.Update(ctx, counter[w], appendByte); err != nil {
					errc <- fmt.Errorf("writer %d append: %w", w, err)
					return
				}
				acked[w].Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := NewSharded(coord, 1)
		if err != nil {
			errc <- err
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("ns:key%04d", i%120)
			v, ok, err := r.Get(ctx, k)
			if err != nil {
				errc <- fmt.Errorf("reader: %w", err)
				return
			}
			if !ok || string(v) != seed[k] {
				errc <- fmt.Errorf("reader: %s = %q,%v want %q", k, v, ok, seed[k])
				return
			}
		}
	}()

	// finish stops the clients and reports their errors.
	finish := func() {
		close(stop)
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	}
	// waitForAppends parks until every writer has acknowledged an append
	// since the last call, so each round of moves lands between writes on a
	// router whose map the round made stale.
	var seen [writers]int64
	waitForAppends := func() {
		deadline := time.Now().Add(10 * time.Second)
		for w := range acked {
			for acked[w].Load() == seen[w] {
				if time.Now().After(deadline) {
					finish()
					t.Fatalf("writer %d acknowledged no append for 10s", w)
				}
				runtime.Gosched()
			}
			seen[w] = acked[w].Load()
		}
	}
	// Drive migrations: every slot in a band ping-pongs between groups.
	for round := 0; round < 6; round++ {
		waitForAppends()
		target := fmt.Sprintf("g%d", round%3)
		for slot := 0; slot < movingSlots; slot++ {
			if _, err := coord.Rebalance(ctx, slot, target); err != nil {
				t.Errorf("rebalance round %d slot %d: %v", round, slot, err)
			}
		}
	}
	waitForAppends()
	finish()
	// Post-quiescence: all seeded keys intact, and every acknowledged append
	// applied exactly once.
	for k, v := range seed {
		got, ok, err := router.Get(ctx, k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("after churn, %s = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
	var retried uint64
	for w, r := range routers {
		got, _, err := router.Get(ctx, counter[w])
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != acked[w].Load() {
			t.Errorf("writer %d: counter %s holds %d appends, %d acknowledged", w, counter[w], len(got), acked[w].Load())
		}
		st := r.Stats()
		retried += st.Redirects + st.FrozenWaits
	}
	// Negative control: the count is vacuous unless writes were refused and
	// retried while their slots moved.
	if retried == 0 {
		t.Error("no writer drew ErrWrongServer or ErrSlotFrozen — nothing was retried")
	}
}
