package recommend

// Degraded-serving tests: when the model/simtable namespace ("sys/...") is
// unreachable but the serving-side data (history, hot lists, profiles — all
// under "sys.") is healthy, every request must be answered from the
// demographic fallback instead of erroring.

import (
	"context"
	"testing"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/kvstore"
	"vidrec/internal/simtable"
)

// degradedSystem builds a system over a Faulty store with the read cache
// disabled, so a key-prefix blackout deterministically reaches every model
// read instead of being absorbed by earlier requests' cached decodes.
func degradedSystem(t *testing.T, opts Options) (*System, *kvstore.Faulty) {
	t.Helper()
	faulty := kvstore.NewFaulty(kvstore.NewLocal(16), 7)
	params := core.DefaultParams()
	params.Factors = 8
	opts.CacheCapacity = -1
	sys, err := NewSystem(faulty, params, simtable.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c", "d", "e"} {
		if err := sys.Catalog.Put(context.Background(), catalog.Video{ID: v, Type: "movie", Length: time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	// Warmup traffic heats the hot list and gives u1 a history of {a, b}.
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		for _, v := range []string{"a", "b"} {
			if err := sys.Ingest(context.Background(), watch(u, v, min)); err != nil {
				t.Fatal(err)
			}
			min++
		}
	}
	for _, v := range []string{"c", "d", "e"} {
		if err := sys.Ingest(context.Background(), watch("u4", v, min)); err != nil {
			t.Fatal(err)
		}
		min++
	}
	return sys, faulty
}

// modelBlackout fails every operation touching the model/simtable namespace
// while leaving history, hot lists, profiles, and the catalog reachable.
func modelBlackout(faulty *kvstore.Faulty) {
	faulty.SetSchedule([]kvstore.FaultPhase{{FailRate: 1, KeyPrefix: "sys/"}})
}

func TestDegradedFallbackOnModelOutage(t *testing.T) {
	sys, faulty := degradedSystem(t, DefaultOptions())
	modelBlackout(faulty)

	res, err := sys.Recommend(context.Background(), Request{UserID: "u1", N: 3})
	if err != nil {
		t.Fatalf("Recommend under model blackout = %v, want degraded response", err)
	}
	if !res.Degraded {
		t.Fatal("response not marked Degraded under total model outage")
	}
	if len(res.Videos) == 0 {
		t.Fatal("degraded response is empty despite a heated hot list")
	}
	if res.HotMerged != len(res.Videos) {
		t.Errorf("HotMerged = %d, want %d (every slot is demographic)", res.HotMerged, len(res.Videos))
	}
	// u1 watched a and b; the fallback must not re-serve them.
	for _, e := range res.Videos {
		if e.ID == "a" || e.ID == "b" {
			t.Errorf("degraded list re-serves watched video %q", e.ID)
		}
	}
}

func TestDegradedExcludesCurrentVideo(t *testing.T) {
	sys, faulty := degradedSystem(t, DefaultOptions())
	modelBlackout(faulty)

	res, err := sys.Recommend(context.Background(), Request{UserID: "u4", CurrentVideo: "c", N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("response not marked Degraded")
	}
	for _, e := range res.Videos {
		if e.ID == "c" {
			t.Error("degraded list includes the video being watched")
		}
	}
}

func TestDegradedServesUnknownUser(t *testing.T) {
	// Cold-start under outage: a user with no profile and no history gets
	// the global hot list — the paper's cold-start answer, doubling as the
	// availability floor.
	sys, faulty := degradedSystem(t, DefaultOptions())
	modelBlackout(faulty)

	res, err := sys.Recommend(context.Background(), Request{UserID: "stranger", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.Videos) == 0 {
		t.Fatalf("unknown user under outage: degraded=%v videos=%d, want non-empty degraded list",
			res.Degraded, len(res.Videos))
	}
}

func TestDegradedValidationStillErrors(t *testing.T) {
	sys, faulty := degradedSystem(t, DefaultOptions())
	modelBlackout(faulty)

	if _, err := sys.Recommend(context.Background(), Request{UserID: "u1", N: 0}); err == nil {
		t.Error("N=0 served a degraded list, want validation error")
	}
	if _, err := sys.Recommend(context.Background(), Request{UserID: "", N: 3}); err == nil {
		t.Error("empty user served a degraded list, want validation error")
	}
}

func TestDegradedResponsesRecordLatency(t *testing.T) {
	sys, faulty := degradedSystem(t, DefaultOptions())
	modelBlackout(faulty)

	const reqs = 4
	for i := 0; i < reqs; i++ {
		res, err := sys.Recommend(context.Background(), Request{UserID: "u1", N: 3})
		if err != nil || !res.Degraded {
			t.Fatalf("request %d: err=%v degraded=%v", i, err, res != nil && res.Degraded)
		}
	}
	if snap := sys.Latency.Snapshot(); snap.Count != reqs {
		t.Errorf("latency samples = %d, want %d (degraded responses are served responses)", snap.Count, reqs)
	}
}

func TestDegradedRecoversToPersonalized(t *testing.T) {
	sys, faulty := degradedSystem(t, DefaultOptions())
	modelBlackout(faulty)
	res, err := sys.Recommend(context.Background(), Request{UserID: "u1", N: 3})
	if err != nil || !res.Degraded {
		t.Fatalf("during outage: err=%v degraded=%v", err, res != nil && res.Degraded)
	}
	// Clearing the schedule ends the outage; serving returns to the
	// personalized path with no residue from the degraded period.
	faulty.SetSchedule(nil)
	res, err = sys.Recommend(context.Background(), Request{UserID: "u1", N: 3})
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if res.Degraded {
		t.Error("response still marked Degraded after the outage ended")
	}
}
