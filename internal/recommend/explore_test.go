package recommend

import (
	"context"
	"testing"

	"vidrec/internal/bandit"
	"vidrec/internal/core"
	"vidrec/internal/kvstore"
	"vidrec/internal/simtable"
)

func exploreOptions() Options {
	o := DefaultOptions()
	o.Explore = true
	o.ExploreSeed = 42
	return o
}

// seedExploreSystem builds a system with enough co-watch structure that all
// three arms have non-empty pools for user u1.
func seedExploreSystem(t *testing.T, s *System) {
	t.Helper()
	ctx := context.Background()
	seedCatalog(t, s,
		vid("a", "movie"), vid("b", "movie"), vid("c", "movie"), vid("d", "news"),
		vid("e", "news"), vid("f", "movie"), vid("g", "movie"), vid("h", "news"))
	min := 0
	for _, u := range []string{"u1", "u2", "u3", "u4"} {
		for _, v := range []string{"a", "b", "c"} {
			if err := s.Ingest(ctx, watch(u, v, min)); err != nil {
				t.Fatal(err)
			}
			min++
		}
	}
	for _, v := range []string{"d", "e", "f", "g", "h"} {
		if err := s.Ingest(ctx, watch("u5", v, min)); err != nil {
			t.Fatal(err)
		}
		min++
	}
}

// TestExploreOptionsValidate checks that explore adds no option of its own
// to validate, and that a bad base option is still refused with it on.
func TestExploreOptionsValidate(t *testing.T) {
	if err := exploreOptions().Validate(); err != nil {
		t.Errorf("explore options rejected: %v", err)
	}
	bad := exploreOptions()
	bad.HotShare = 1.5
	if bad.Validate() == nil {
		t.Error("HotShare outside [0,1] accepted with explore on")
	}
}

// TestExploreSlate pins the re-ranked slate's structural invariants: marked
// Explored, arm tags parallel and valid, no duplicate videos, nothing the
// user already watched, pulls recorded and attributions written.
func TestExploreSlate(t *testing.T) {
	ctx := context.Background()
	s := testSystem(t, exploreOptions())
	seedExploreSystem(t, s)

	res, err := s.Recommend(ctx, Request{UserID: "u1", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explored || res.Degraded {
		t.Fatalf("explore response flags: Explored=%v Degraded=%v", res.Explored, res.Degraded)
	}
	if len(res.Arms) != len(res.Videos) || len(res.Videos) == 0 {
		t.Fatalf("arms/videos mismatch: %d arms, %d videos", len(res.Arms), len(res.Videos))
	}
	seen := map[string]bool{}
	hot := 0
	for i, e := range res.Videos {
		if seen[e.ID] {
			t.Errorf("duplicate video %s in explored slate", e.ID)
		}
		seen[e.ID] = true
		for _, w := range []string{"a", "b", "c"} {
			if e.ID == w {
				t.Errorf("watched video %s re-served", e.ID)
			}
		}
		if !res.Arms[i].Valid() {
			t.Errorf("slot %d tagged with invalid arm %d", i, uint8(res.Arms[i]))
		}
		if res.Arms[i] == bandit.ArmHot {
			hot++
		}
	}
	if res.HotMerged != hot {
		t.Errorf("HotMerged = %d, want %d (count of hot-armed slots)", res.HotMerged, hot)
	}

	st, err := s.Bandit.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for a := 0; a < bandit.NumArms; a++ {
		total += st.Pulls[a]
	}
	if total != float64(len(res.Videos)) {
		t.Errorf("recorded pulls %v, want %d (one per served slot)", total, len(res.Videos))
	}
	attrs, err := s.Bandit.Attributions(ctx, "u1")
	if err != nil || len(attrs) != len(res.Videos) {
		t.Fatalf("attributions = %v, %v; want one per slot", attrs, err)
	}
}

// TestExploreRewardLoop drives the full sequential loop: serve explored,
// click a served video, and watch the credited arm's posterior move while
// the attribution is consumed.
func TestExploreRewardLoop(t *testing.T) {
	ctx := context.Background()
	s := testSystem(t, exploreOptions())
	seedExploreSystem(t, s)

	res, err := s.Recommend(ctx, Request{UserID: "u1", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	clicked := res.Videos[0].ID
	clickedArm := res.Arms[0]
	action := watch("u1", clicked, 100)
	// A full watch carries Eq. 6's ceiling weight (2.5), scaling to 0.625.
	wantReward := bandit.RewardFromWeight(s.Weights().Weight(action))
	if wantReward <= 0 || wantReward > 1 {
		t.Fatalf("test premise broken: full-watch reward = %v", wantReward)
	}
	if err := s.Ingest(ctx, action); err != nil {
		t.Fatal(err)
	}
	st, err := s.Bandit.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wins[clickedArm] != wantReward {
		t.Errorf("credited arm %v has wins %v, want %v", clickedArm, st.Wins[clickedArm], wantReward)
	}
	// The slot's credit is consumed: acting on it again earns nothing.
	if err := s.Ingest(ctx, watch("u1", clicked, 101)); err != nil {
		t.Fatal(err)
	}
	if st, _ = s.Bandit.State(ctx); st.Wins[clickedArm] != wantReward {
		t.Errorf("repeat action re-credited the arm: wins %v", st.Wins[clickedArm])
	}
	// An action on an unserved video credits nothing either.
	if err := s.Ingest(ctx, watch("u1", "h", 102)); err != nil {
		t.Fatal(err)
	}
	stAfter, _ := s.Bandit.State(ctx)
	if stAfter.Wins != st.Wins {
		t.Errorf("unattributed action moved wins: %v -> %v", st.Wins, stAfter.Wins)
	}
}

// TestDegradedNeverExplores pins the composition with the PR5 fallback: when
// the personalized path (and with it the explore re-rank) fails under a
// model blackout, the degraded response is served un-explored and the bandit
// records nothing — Degraded responses never sample.
func TestDegradedNeverExplores(t *testing.T) {
	ctx := context.Background()
	faulty := kvstore.NewFaulty(kvstore.NewLocal(16), 7)
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := NewSystem(faulty, params, simtable.DefaultConfig(), exploreOptions())
	if err != nil {
		t.Fatal(err)
	}
	seedExploreSystem(t, sys)
	faulty.SetSchedule([]kvstore.FaultPhase{{FailRate: 1, KeyPrefix: "sys/"}})

	res, err := sys.Recommend(ctx, Request{UserID: "u1", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Explored || res.Arms != nil {
		t.Fatalf("blackout response: Degraded=%v Explored=%v Arms=%v", res.Degraded, res.Explored, res.Arms)
	}
	faulty.SetSchedule(nil)
	st, err := sys.Bandit.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st != (bandit.State{}) {
		t.Errorf("degraded serving touched bandit state: %+v", st)
	}
	if attrs, _ := sys.Bandit.Attributions(ctx, "u1"); attrs != nil {
		t.Errorf("degraded serving wrote attributions: %v", attrs)
	}
}

// TestExploreDeterministicSlates: two systems with identical options, state,
// and seed serve identical explored slates — request-level replay, under the
// same contract the golden file pins end to end.
func TestExploreDeterministicSlates(t *testing.T) {
	ctx := context.Background()
	serve := func() ([]string, []bandit.Arm) {
		s := testSystem(t, exploreOptions())
		seedExploreSystem(t, s)
		var ids []string
		var arms []bandit.Arm
		for i := 0; i < 5; i++ {
			res, err := s.Recommend(ctx, Request{UserID: "u1", N: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.Videos {
				ids = append(ids, e.ID)
			}
			arms = append(arms, res.Arms...)
		}
		return ids, arms
	}
	ids1, arms1 := serve()
	ids2, arms2 := serve()
	if len(ids1) != len(ids2) {
		t.Fatalf("slate lengths differ: %d vs %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] || arms1[i] != arms2[i] {
			t.Fatalf("slot %d differs across same-seed systems: %s/%v vs %s/%v",
				i, ids1[i], arms1[i], ids2[i], arms2[i])
		}
	}
}

// TestExploreWarmAllocs pins the explore path's own allocation budget with a
// warm cache, the way TestDegradedWarmAllocs pins the fallback's: the warm
// exploit cost (18) plus the explore layer's hatched allocations — the
// escaping slate and arm slices, the pull-charge update, and the attribution
// record write. If this bound creeps, exploration is allocating outside its
// hatched budget.
func TestExploreWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates closures the serving path keeps on the stack, inflating the count")
	}
	ctx := context.Background()
	s := testSystem(t, exploreOptions())
	seedExploreSystem(t, s)
	req := Request{UserID: "u1", N: 4}
	if _, err := s.Recommend(ctx, req); err != nil { // warm the cache
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		res, err := s.Recommend(ctx, req)
		if err != nil || !res.Explored {
			t.Fatal("explored request failed")
		}
	})
	// 38 measured: the warm exploit work plus the cached state read, the
	// pull-charge update (closure + state encode + shard copy), and the
	// attribution write (record build + entry encode + shard copy).
	if avg > 38 {
		t.Fatalf("warm explored Recommend allocates %v objects/op, want <= 38", avg)
	}
}
