package recommend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/simtable"
)

func testSystem(t *testing.T, opts Options) *System {
	t.Helper()
	params := core.DefaultParams()
	params.Factors = 8
	simCfg := simtable.DefaultConfig()
	simCfg.TableSize = 20
	s, err := NewSystem(kvstore.NewLocal(16), params, simCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func seedCatalog(t *testing.T, s *System, videos ...catalog.Video) {
	t.Helper()
	for _, v := range videos {
		if err := s.Catalog.Put(context.Background(), v); err != nil {
			t.Fatal(err)
		}
	}
}

var base = time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)

func watch(u, v string, minute int) feedback.Action {
	return feedback.Action{
		UserID: u, VideoID: v, Type: feedback.PlayTime,
		ViewTime: 30 * time.Minute, VideoLength: 30 * time.Minute,
		Timestamp: base.Add(time.Duration(minute) * time.Minute),
	}
}

func vid(id, typ string) catalog.Video {
	return catalog.Video{ID: id, Type: typ, Length: 30 * time.Minute}
}

func TestOptionsValidate(t *testing.T) {
	cases := []func(*Options){
		func(o *Options) { o.SeedCount = 0 },
		func(o *Options) { o.CandidatesPerSeed = 0 },
		func(o *Options) { o.MaxCandidates = 0 },
		func(o *Options) { o.HotShare = -0.1 },
		func(o *Options) { o.HotShare = 1.1 },
		func(o *Options) { o.HistoryLimit = 0 },
		func(o *Options) { o.PairWindow = 0 },
		func(o *Options) { o.HotHalfLife = 0 },
		func(o *Options) { o.HotCapacity = 0 },
	}
	for i, mutate := range cases {
		o := DefaultOptions()
		mutate(&o)
		if o.Validate() == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestValidation(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	if _, err := s.Recommend(context.Background(), Request{UserID: "u", N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := s.Recommend(context.Background(), Request{N: 5}); err == nil {
		t.Error("empty user accepted")
	}
}

// TestRelatedVideosScenario: a co-watch pattern must surface the co-watched
// video as "related" to the current one (Figure 6(b)).
func TestRelatedVideosScenario(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	seedCatalog(t, s,
		vid("a", "movie"), vid("b", "movie"), vid("c", "news"), vid("d", "movie"))
	// Several users co-watch a and b.
	min := 0
	for _, u := range []string{"u1", "u2", "u3", "u4"} {
		s.Ingest(context.Background(), watch(u, "a", min))
		s.Ingest(context.Background(), watch(u, "b", min+1))
		min += 2
	}
	// u9 watches c only, establishing an unrelated video.
	s.Ingest(context.Background(), watch("u9", "c", min))

	res, err := s.Recommend(context.Background(), Request{UserID: "u5", CurrentVideo: "a", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Videos) == 0 {
		t.Fatal("no recommendations for a co-watched video")
	}
	if res.Videos[0].ID != "b" {
		t.Errorf("top related video = %s, want b (co-watched)", res.Videos[0].ID)
	}
	for _, e := range res.Videos {
		if e.ID == "a" {
			t.Error("current video recommended to itself")
		}
	}
	if res.Latency <= 0 {
		t.Error("latency not measured")
	}
}

// TestGuessYouLikeScenario: with no current video, history seeds the list
// (Figure 6(a)).
func TestGuessYouLikeScenario(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	seedCatalog(t, s, vid("a", "movie"), vid("b", "movie"), vid("c", "movie"))
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		s.Ingest(context.Background(), watch(u, "a", min))
		s.Ingest(context.Background(), watch(u, "b", min+1))
		s.Ingest(context.Background(), watch(u, "c", min+2))
		min += 3
	}
	// u4 watched a and b; c should be suggested via similarity to them.
	s.Ingest(context.Background(), watch("u4", "a", min))
	s.Ingest(context.Background(), watch("u4", "b", min+1))

	res, err := s.Recommend(context.Background(), Request{UserID: "u4", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range res.Videos {
		if e.ID == "c" {
			found = true
		}
		if e.ID == "a" || e.ID == "b" {
			t.Errorf("already-watched %s recommended", e.ID)
		}
	}
	if !found {
		t.Errorf("c not recommended; got %+v", res.Videos)
	}
	if res.Seeds != 2 {
		t.Errorf("Seeds = %d, want 2", res.Seeds)
	}
}

// TestColdStartFallsBackToHot: a brand-new user gets the demographic hot
// list (§5.2.1's new-user answer).
func TestColdStartFallsBackToHot(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	seedCatalog(t, s, vid("hit", "movie"), vid("meh", "movie"))
	for i, u := range []string{"u1", "u2", "u3"} {
		s.Ingest(context.Background(), watch(u, "hit", i))
	}
	s.Ingest(context.Background(), watch("u4", "meh", 5))

	res, err := s.Recommend(context.Background(), Request{UserID: "brand-new-user", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Videos) == 0 {
		t.Fatal("cold-start user got nothing")
	}
	if res.Videos[0].ID != "hit" {
		t.Errorf("cold-start top = %s, want hit", res.Videos[0].ID)
	}
	if res.HotMerged != len(res.Videos) {
		t.Errorf("HotMerged = %d, want %d (all from DB)", res.HotMerged, len(res.Videos))
	}
}

// TestDemographicFilteringOffNoHotMerge verifies the ablation switch.
func TestDemographicFilteringOffNoHotMerge(t *testing.T) {
	opts := DefaultOptions()
	opts.DemographicFiltering = false
	s := testSystem(t, opts)
	seedCatalog(t, s, vid("hit", "movie"))
	s.Ingest(context.Background(), watch("u1", "hit", 0))
	res, err := s.Recommend(context.Background(), Request{UserID: "new-user", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.HotMerged != 0 || len(res.Videos) != 0 {
		t.Errorf("filtering off but result = %+v", res)
	}
}

// TestHotReserveBroadensList: even with plenty of MF candidates, HotShare of
// the list comes from the hot merge.
func TestHotReserveBroadensList(t *testing.T) {
	opts := DefaultOptions()
	opts.HotShare = 0.5
	s := testSystem(t, opts)
	videos := []catalog.Video{
		vid("a", "movie"), vid("b", "movie"), vid("c", "movie"),
		vid("d", "movie"), vid("viral", "news"),
	}
	seedCatalog(t, s, videos...)
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		for _, v := range []string{"a", "b", "c", "d"} {
			s.Ingest(context.Background(), watch(u, v, min))
			min++
		}
	}
	// viral is hot but never co-watched with u4's history.
	for i, u := range []string{"u7", "u8", "u9"} {
		s.Ingest(context.Background(), watch(u, "viral", min+i))
	}
	s.Ingest(context.Background(), watch("u4", "a", min+10))
	res, err := s.Recommend(context.Background(), Request{UserID: "u4", CurrentVideo: "a", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.HotMerged == 0 {
		t.Errorf("no hot merge despite reserve; result %+v", res)
	}
	seen := false
	for _, e := range res.Videos {
		if e.ID == "viral" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("viral video not merged: %+v", res.Videos)
	}
}

// TestDemographicTrainingGroupIsolation: group tables see only the group's
// co-watches (plus the group's contribution to global), so a group member's
// related list reflects group behaviour while global users see the union.
func TestDemographicTrainingGroupIsolation(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	seedCatalog(t, s, vid("a", "movie"), vid("b", "movie"), vid("c", "movie"))
	prof := demographic.Profile{
		Registered: true,
		Gender:     demographic.GenderFemale, Age: demographic.Age18to24, Education: demographic.EduBachelor,
	}
	prof.UserID = "grp-1"
	s.Profiles.Put(context.Background(), prof)
	prof.UserID = "grp-2"
	s.Profiles.Put(context.Background(), prof)
	// grp-1 co-watches a,b inside the group; global users co-watch a,c.
	s.Ingest(context.Background(), watch("grp-1", "a", 0))
	s.Ingest(context.Background(), watch("grp-1", "b", 1))
	for i, u := range []string{"u1", "u2", "u3"} {
		s.Ingest(context.Background(), watch(u, "a", 2+2*i))
		s.Ingest(context.Background(), watch(u, "c", 3+2*i))
	}
	// grp-2 (same group, empty history) asks for videos related to a: the
	// group tables know only the a–b pair, never a–c.
	res, err := s.Recommend(context.Background(), Request{UserID: "grp-2", CurrentVideo: "a", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Videos) == 0 || res.Videos[0].ID != "b" {
		t.Fatalf("group user's related = %+v, want b first", res.Videos)
	}
	group := prof.Group()
	groupTables, err := s.Tables.For(group)
	if err != nil {
		t.Fatal(err)
	}
	similar, err := groupTables.Similar(context.Background(), "a", 10, s.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range similar {
		if e.ID == "c" {
			t.Error("group tables contain the global-only a-c pair")
		}
	}
	// The global tables see both pairs (group actions contribute).
	globalTables, _ := s.Tables.For(demographic.GlobalGroup)
	globalSim, _ := globalTables.Similar(context.Background(), "a", 10, s.Now())
	ids := map[string]bool{}
	for _, e := range globalSim {
		ids[e.ID] = true
	}
	if !ids["b"] || !ids["c"] {
		t.Errorf("global tables = %+v, want both b and c", globalSim)
	}
}

// TestMaxCandidatesCapsScoring: the real-time constraint — the candidate
// set, and therefore the scoring work per request, is bounded regardless of
// how rich the similar tables are.
func TestMaxCandidatesCapsScoring(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxCandidates = 7
	opts.CandidatesPerSeed = 50
	s := testSystem(t, opts)
	// Build a dense co-watch neighbourhood around "hub".
	videos := []catalog.Video{vid("hub", "movie")}
	for i := 0; i < 30; i++ {
		videos = append(videos, vid(fmt.Sprintf("n%02d", i), "movie"))
	}
	seedCatalog(t, s, videos...)
	min := 0
	for u := 0; u < 6; u++ {
		user := fmt.Sprintf("u%d", u)
		s.Ingest(context.Background(), watch(user, "hub", min))
		min++
		for i := 0; i < 30; i += 2 {
			s.Ingest(context.Background(), watch(user, fmt.Sprintf("n%02d", (i+u)%30), min))
			min++
		}
	}
	res, err := s.Recommend(context.Background(), Request{UserID: "fresh-user", CurrentVideo: "hub", N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates > opts.MaxCandidates {
		t.Errorf("candidates = %d, exceeds cap %d", res.Candidates, opts.MaxCandidates)
	}
	if res.Candidates == 0 {
		t.Error("no candidates despite a dense neighbourhood")
	}
}

func TestIngestAdvancesClock(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	seedCatalog(t, s, vid("a", "movie"))
	s.Ingest(context.Background(), watch("u1", "a", 90))
	if got := s.Now(); !got.Equal(base.Add(90 * time.Minute).Add(31 * time.Minute)) {
		// watch() sets ViewTime offsets inside timestamps? No: Timestamp is
		// base+90min exactly.
		if !got.Equal(base.Add(90 * time.Minute)) {
			t.Errorf("Now = %v", got)
		}
	}
	s.SetClock(func() time.Time { return base.Add(5 * time.Hour) })
	if !s.Now().Equal(base.Add(5 * time.Hour)) {
		t.Error("SetClock not honoured")
	}
}

func TestEvalAdapter(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	seedCatalog(t, s, vid("hit", "movie"))
	s.Ingest(context.Background(), watch("u1", "hit", 0))
	got, err := EvalAdapter{S: s}.Recommend("new-user", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hit" {
		t.Errorf("adapter Recommend = %v", got)
	}
}

// TestIngestRecommendConcurrent: recserve's /action and /recommend handlers
// run Ingest and Recommend on different goroutines, and Recommend reads the
// stream clock Ingest advances. Run under -race.
func TestIngestRecommendConcurrent(t *testing.T) {
	s := testSystem(t, DefaultOptions())
	seedCatalog(t, s, vid("a", "movie"), vid("b", "movie"), vid("c", "movie"))
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.Ingest(ctx, watch("u1", []string{"a", "b", "c"}[i%3], i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := s.Recommend(ctx, Request{UserID: "u2", N: 3}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if want := watch("u1", "a", 199).Timestamp; !s.Now().Equal(want) {
		t.Errorf("Now() = %v after the stream, want its latest timestamp %v", s.Now(), want)
	}
}
