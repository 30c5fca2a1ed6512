package kvstore

import (
	"context"
	"errors"
	"testing"
)

// The tests below hold NewReplicated's one-group tier to the Store contract
// a replica set owes its callers: writes reach every live replica, reads
// answer from the primary, and a dead replica costs neither a write nor a
// read while one replica lives.

// deadStore is a replica that fails every operation.
func deadStore() *shakyStore {
	return &shakyStore{Store: NewLocal(1), failGet: true, failSet: true, failDelete: true, failUpdate: true}
}

func TestReplicatedValidation(t *testing.T) {
	if _, err := NewReplicated(); err == nil {
		t.Error("NewReplicated() with no replicas succeeded")
	}
	if _, err := NewReplicated(NewLocal(1), nil); err == nil {
		t.Error("NewReplicated with a nil replica succeeded")
	}
	if _, err := NewReplicated(NewLocal(1)); err != nil {
		t.Errorf("single-replica tier: %v", err)
	}
}

func TestReplicatedWriteAllFansOut(t *testing.T) {
	ctx := context.Background()
	a, b := NewLocal(4), NewLocal(4)
	r, err := NewReplicated(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i, s := range []Store{a, b} {
		v, ok, err := s.Get(ctx, "k")
		if err != nil || !ok || string(v) != "v" {
			t.Errorf("replica %d: Get = %q,%v,%v", i, v, ok, err)
		}
	}
	if ok, err := r.Delete(ctx, "k"); err != nil || !ok {
		t.Fatalf("Delete = %v,%v, want true", ok, err)
	}
	for i, s := range []Store{a, b} {
		if _, ok, _ := s.Get(ctx, "k"); ok {
			t.Errorf("replica %d still holds the key after the delete", i)
		}
	}
}

func TestReplicatedReadPrefersPrimary(t *testing.T) {
	ctx := context.Background()
	a, b := NewLocal(4), NewLocal(4)
	r, _ := NewReplicated(a, b)
	if err := r.Set(ctx, "k", []byte("primary")); err != nil {
		t.Fatal(err)
	}
	// Divergent state: reads must come from the primary, not whichever
	// replica happens to answer.
	_ = b.Set(ctx, "k", []byte("stale"))
	v, ok, err := r.Get(ctx, "k")
	if err != nil || !ok || string(v) != "primary" {
		t.Fatalf("Get = %q,%v,%v, want primary's value", v, ok, err)
	}
}

func TestReplicatedMissingKeyIsNotAnError(t *testing.T) {
	ctx := context.Background()
	a, b := NewLocal(4), NewLocal(4)
	r, _ := NewReplicated(a, b)
	// A key present only on the backup: the healthy primary's "missing" is
	// the answer — a backup must never shadow the primary's state.
	_ = b.Set(ctx, "ghost", []byte("x"))
	if _, ok, err := r.Get(ctx, "ghost"); err != nil || ok {
		t.Errorf("Get(ghost) = ok=%v err=%v, want a miss from the primary", ok, err)
	}
}

func TestReplicatedReadFallsOverToHealthyReplica(t *testing.T) {
	ctx := context.Background()
	primary := &shakyStore{Store: NewLocal(4)}
	r, _ := NewReplicated(primary, NewLocal(4))
	if err := r.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	primary.failGet = true
	v, ok, err := r.Get(ctx, "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v,%v, want the backup's value", v, ok, err)
	}
	vals, err := r.MGet(ctx, []string{"k"})
	if err != nil || string(vals[0]) != "v" {
		t.Fatalf("MGet = %q,%v", vals, err)
	}
	if n, err := r.Len(ctx); err != nil || n != 1 {
		t.Fatalf("Len = %d,%v, want 1", n, err)
	}
}

func TestReplicatedWriteSurvivesDeadReplica(t *testing.T) {
	ctx := context.Background()
	healthy := NewLocal(4)
	r, _ := NewReplicated(deadStore(), healthy)
	if err := r.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Set with a dead primary = %v, want the backup promoted to take it", err)
	}
	if v, ok, _ := healthy.Get(ctx, "k"); !ok || string(v) != "v" {
		t.Error("healthy replica missed the write")
	}
	if _, err := r.Delete(ctx, "k"); err != nil {
		t.Fatalf("Delete with a dead replica = %v, want success", err)
	}
}

func TestReplicatedWriteAllDeadFails(t *testing.T) {
	r, _ := NewReplicated(deadStore(), deadStore())
	if err := r.Set(context.Background(), "k", nil); !errors.Is(err, errInjected) {
		t.Errorf("Set with every replica dead = %v, want the replica's error", err)
	}
}

func TestReplicatedDeleteReportsExistence(t *testing.T) {
	ctx := context.Background()
	r, _ := NewReplicated(NewLocal(4), NewLocal(4))
	_ = r.Set(ctx, "k", []byte("v"))
	if ok, err := r.Delete(ctx, "k"); err != nil || !ok {
		t.Errorf("Delete(existing) = %v,%v, want true", ok, err)
	}
	if ok, err := r.Delete(ctx, "k"); err != nil || ok {
		t.Errorf("Delete(absent) = %v,%v, want false", ok, err)
	}
}

func TestReplicatedUpdateAppliesOnceWritesAll(t *testing.T) {
	ctx := context.Background()
	a, b := NewLocal(4), NewLocal(4)
	r, _ := NewReplicated(a, b)
	_ = r.Set(ctx, "n", EncodeInt64(1))

	invocations := 0
	err := r.Update(ctx, "n", func(cur []byte, exists bool) ([]byte, bool) {
		invocations++
		n, _ := DecodeInt64(cur)
		return EncodeInt64(n + 10), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if invocations != 1 {
		t.Errorf("Update callback ran %d times, want 1", invocations)
	}
	for i, s := range []Store{a, b} {
		v, _, _ := s.Get(ctx, "n")
		if n, _ := DecodeInt64(v); n != 11 {
			t.Errorf("replica %d after Update = %d, want 11", i, n)
		}
	}

	// Update with keep=false deletes everywhere.
	if err := r.Update(ctx, "n", func([]byte, bool) ([]byte, bool) { return nil, false }); err != nil {
		t.Fatal(err)
	}
	for i, s := range []Store{a, b} {
		if _, ok, _ := s.Get(ctx, "n"); ok {
			t.Errorf("replica %d still holds the key after an Update delete", i)
		}
	}
}

// TestReplicatedResilientComposition exercises the deployed stack shape: a
// group over per-replica Resilient decorators. A replica whose breaker is
// open fails fast, and reads skip over it to the healthy replica.
func TestReplicatedResilientComposition(t *testing.T) {
	ctx := context.Background()
	flaky := newFlakyStore()
	primary := NewResilient(flaky, ResilienceConfig{
		MaxRetries: 0,
		Breaker:    BreakerConfig{Threshold: 1, Cooldown: DefaultBreakerCooldown},
	}, 1)
	primary.SetClock(newFakeClock().Now) // frozen clock: breaker stays open
	primary.SetSleep(noSleep)
	backup := NewResilient(NewLocal(4), ResilienceConfig{MaxRetries: 0}, 2)
	backup.SetSleep(noSleep)
	r, err := NewReplicated(primary, backup)
	if err != nil {
		t.Fatal(err)
	}

	if err := r.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	flaky.setFailNext(100)
	// The first read trips the primary's breaker and falls over; later
	// reads are rejected at memory speed without touching the flaky store.
	for i := 0; i < 3; i++ {
		v, ok, err := r.Get(ctx, "k")
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("read %d = %q,%v,%v", i, v, ok, err)
		}
	}
	if got := primary.Breaker().State(); got != BreakerOpen {
		t.Errorf("primary breaker = %v, want open", got)
	}
	if calls := flaky.callCount(); calls != 2 {
		// 1 successful Set + 1 failed Get; reads 2 and 3 hit ErrBreakerOpen.
		t.Errorf("flaky store saw %d calls, want 2", calls)
	}
}
