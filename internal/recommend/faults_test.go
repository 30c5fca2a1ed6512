package recommend

// Failure-injection tests: the pipeline must surface storage-tier errors
// cleanly (no panics, no silent corruption) and resume once the store
// recovers — the behaviour a degraded distributed KV deployment demands.

import (
	"context"
	"errors"
	"testing"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/demographic"
	"vidrec/internal/kvstore"
	"vidrec/internal/simtable"
)

func faultySystem(t *testing.T) (*System, *kvstore.Faulty) {
	t.Helper()
	faulty := kvstore.NewFaulty(kvstore.NewLocal(16), 7)
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := NewSystem(faulty, params, simtable.DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys, faulty
}

func TestIngestSurfacesStoreErrors(t *testing.T) {
	sys, faulty := faultySystem(t)
	sys.Catalog.Put(context.Background(), catalog.Video{ID: "v", Type: "t", Length: time.Minute})
	faulty.SetFailRate(1)
	err := sys.Ingest(context.Background(), watch("u1", "v", 0))
	if err == nil {
		t.Fatal("Ingest swallowed a total store outage")
	}
	if !errors.Is(err, kvstore.ErrInjected) {
		t.Errorf("error does not wrap the injected fault: %v", err)
	}
}

// TestIngestFailsOnProfileReadError: the write path must not mistake an
// unreadable profile for "no profile" — that would silently train the action
// into the global group only. The action fails as a whole and writes nothing;
// the serve path keeps its global-group fallback.
func TestIngestFailsOnProfileReadError(t *testing.T) {
	ctx := context.Background()
	store := kvstore.NewLocal(16)
	faulty := kvstore.NewFaulty(store, 7)
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := NewSystem(faulty, params, simtable.DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys.Catalog.Put(ctx, catalog.Video{ID: "v", Type: "t", Length: time.Minute})
	sys.Profiles.Put(ctx, demographic.Profile{UserID: "u1", Registered: true, Gender: demographic.GenderMale})
	before, _ := store.Len(ctx)

	faulty.SetSchedule([]kvstore.FaultPhase{{FailRate: 1, KeyPrefix: "sys.prof"}})
	if err := sys.Ingest(ctx, watch("u1", "v", 0)); !errors.Is(err, kvstore.ErrInjected) {
		t.Fatalf("Ingest with the profile namespace down: err = %v, want the injected fault", err)
	}
	if after, _ := store.Len(ctx); after != before {
		t.Errorf("failed action wrote %d keys", after-before)
	}
	if _, err := sys.Recommend(ctx, Request{UserID: "u1", N: 3}); err != nil {
		t.Errorf("serve path did not fall back to the global group: %v", err)
	}

	faulty.SetSchedule(nil)
	if err := sys.Ingest(ctx, watch("u1", "v", 0)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	group, err := sys.Profiles.GroupOf(ctx, "u1")
	if err != nil || group == demographic.GlobalGroup {
		t.Fatalf("GroupOf(u1) = %q, %v", group, err)
	}
	if hot, _ := sys.Hot.Hot(ctx, group, 1, sys.Now()); len(hot) != 1 {
		t.Errorf("recovered action did not reach the %q hot list", group)
	}
}

func TestRecommendSurfacesStoreErrors(t *testing.T) {
	sys, faulty := faultySystem(t)
	sys.Catalog.Put(context.Background(), catalog.Video{ID: "v", Type: "t", Length: time.Minute})
	if err := sys.Ingest(context.Background(), watch("u1", "v", 0)); err != nil {
		t.Fatal(err)
	}
	faulty.SetFailRate(1)
	if _, err := sys.Recommend(context.Background(), Request{UserID: "u1", N: 5}); err == nil {
		t.Fatal("Recommend swallowed a total store outage")
	}
}

func TestPipelineRecoversAfterOutage(t *testing.T) {
	sys, faulty := faultySystem(t)
	for _, v := range []string{"a", "b", "c"} {
		sys.Catalog.Put(context.Background(), catalog.Video{ID: v, Type: "movie", Length: time.Minute})
	}
	// Healthy warmup.
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		sys.Ingest(context.Background(), watch(u, "a", min))
		sys.Ingest(context.Background(), watch(u, "b", min+1))
		min += 2
	}
	// Outage: ingest fails, counted.
	faulty.SetFailRate(1)
	if err := sys.Ingest(context.Background(), watch("u4", "a", min)); err == nil {
		t.Fatal("outage ingest succeeded")
	}
	if faulty.Injected() == 0 {
		t.Fatal("no faults recorded")
	}
	// Recovery: the same action applies cleanly and serving works again.
	faulty.SetFailRate(0)
	if err := sys.Ingest(context.Background(), watch("u4", "a", min)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	res, err := sys.Recommend(context.Background(), Request{UserID: "u4", CurrentVideo: "a", N: 2})
	if err != nil {
		t.Fatalf("recommend after recovery: %v", err)
	}
	if len(res.Videos) == 0 {
		t.Error("no recommendations after recovery")
	}
}

// TestIngestUnderPartialFailure: a flaky store (10% error rate) must fail
// some ingests but never corrupt state so badly that healthy operations
// stop working.
func TestIngestUnderPartialFailure(t *testing.T) {
	sys, faulty := faultySystem(t)
	for _, v := range []string{"a", "b", "c", "d", "e", "f"} {
		sys.Catalog.Put(context.Background(), catalog.Video{ID: v, Type: "movie", Length: time.Minute})
	}
	faulty.SetFailRate(0.1)
	failed := 0
	videos := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		if err := sys.Ingest(context.Background(), watch("u1", videos[i%4], i)); err != nil {
			failed++
		}
		// Other users keep e and f hot, so u1 — who will have watched the
		// whole a-d set — still has recommendable content afterwards.
		if err := sys.Ingest(context.Background(), watch("u2", []string{"e", "f"}[i%2], i)); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no ingest failed at 10% fault rate")
	}
	if failed == 200 {
		t.Fatal("every ingest failed at 10% fault rate")
	}
	faulty.SetFailRate(0)
	res, err := sys.Recommend(context.Background(), Request{UserID: "u1", CurrentVideo: "a", N: 3})
	if err != nil {
		t.Fatalf("recommend after flaky period: %v", err)
	}
	if len(res.Videos) == 0 {
		t.Error("no recommendations after flaky period")
	}
}

// TestLatencyHistogramRecords checks every Recommend is timed on the
// injected wall clock: with a clock that moves 3ms per reading, each
// response and the histogram read exactly 3ms.
func TestLatencyHistogramRecords(t *testing.T) {
	sys, _ := faultySystem(t)
	sys.Catalog.Put(context.Background(), catalog.Video{ID: "v", Type: "t", Length: time.Minute})
	sys.Ingest(context.Background(), watch("u1", "v", 0))
	var tick time.Time
	sys.SetWallClock(func() time.Time {
		tick = tick.Add(3 * time.Millisecond)
		return tick
	})
	for i := 0; i < 5; i++ {
		res, err := sys.Recommend(context.Background(), Request{UserID: "u1", N: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency != 3*time.Millisecond {
			t.Errorf("request %d: latency %v, want 3ms from the injected clock", i, res.Latency)
		}
	}
	snap := sys.Latency.Snapshot()
	if snap.Count != 5 {
		t.Errorf("latency samples = %d, want 5", snap.Count)
	}
	if snap.Max != 3*time.Millisecond {
		t.Errorf("max latency %v, want 3ms", snap.Max)
	}
}
