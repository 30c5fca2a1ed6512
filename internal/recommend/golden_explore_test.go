package recommend_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
)

// The explored golden test pins the bandit re-ranked serving output for a
// fixed seed and reward history: the same synthetic replay as golden_topn,
// served in Explore mode with a fixed policy seed, with simulated clicks fed
// back between slates so the posteriors actually move mid-run. Any change to
// the policy's sampling, the arm pools, the fallback order, or the reward
// codec shows up as a golden diff. Refresh deliberately with
//
//	go test ./internal/recommend -run GoldenExplore -update

const goldenExplorePath = "testdata/golden_explore.json"

// goldenExploreResult extends the golden record with per-slot arm tags and
// the reward state the slate was served under.
type goldenExploreResult struct {
	User         string        `json:"user"`
	CurrentVideo string        `json:"current_video,omitempty"`
	Videos       []goldenEntry `json:"videos"`
	Arms         []string      `json:"arms"`
	Seeds        int           `json:"seeds"`
	Candidates   int           `json:"candidates"`
	HotMerged    int           `json:"hot_merged"`
}

type goldenExploreFile struct {
	Seed        uint64                `json:"seed"`
	ExploreSeed uint64                `json:"explore_seed"`
	Policy      string                `json:"policy"`
	Actions     int                   `json:"actions"`
	Results     []goldenExploreResult `json:"results"`
	FinalPulls  []float64             `json:"final_pulls"`
	FinalWins   []float64             `json:"final_wins"`
}

func buildGoldenExplore(t *testing.T) goldenExploreFile {
	t.Helper()
	ctx := context.Background()
	ds, err := dataset.Generate(dataset.Config{
		Seed:             7,
		Users:            24,
		Videos:           48,
		Types:            6,
		Factors:          4,
		Days:             1,
		EventsPerDay:     80,
		ZipfExponent:     1.05,
		TrendDriftPerDay: 0.08,
		GroupInfluence:   0.6,
		RegisteredShare:  0.65,
		Start:            time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	params := core.DefaultParams()
	params.Factors = 8
	opts := recommend.DefaultOptions()
	opts.Explore = true
	opts.ExploreSeed = 20160307
	sys, err := recommend.NewSystem(kvstore.NewLocal(16), params, simtable.DefaultConfig(), opts)
	if err != nil {
		t.Fatalf("build system: %v", err)
	}
	if err := ds.FillCatalog(ctx, sys.Catalog); err != nil {
		t.Fatalf("fill catalog: %v", err)
	}
	if err := ds.FillProfiles(ctx, sys.Profiles); err != nil {
		t.Fatalf("fill profiles: %v", err)
	}

	out := goldenExploreFile{
		Seed:        ds.Config().Seed,
		ExploreSeed: opts.ExploreSeed,
		Policy:      "thompson",
	}
	stream := ds.Stream()
	for {
		a, ok := stream.Next()
		if !ok {
			break
		}
		if err := sys.Ingest(ctx, a); err != nil {
			t.Fatalf("ingest action %d: %v", out.Actions, err)
		}
		out.Actions++
	}

	// The same fixed request mix as golden_topn, but after each slate the
	// user "clicks" its first entry — the click re-enters Ingest, Take
	// credits the arm that filled slot 0, and the next slate is sampled
	// from moved posteriors. The file therefore pins the whole loop:
	// sample → attribute → reward → sample.
	users := ds.Users()
	videos := ds.Videos()
	clickAt := sys.Now().Add(time.Minute)
	for i := 0; i < 8; i++ {
		u := users[(i*3)%len(users)].ID
		reqs := []recommend.Request{
			{UserID: u, N: 5},
			{UserID: u, N: 5, CurrentVideo: videos[(i*7)%len(videos)].Meta.ID},
		}
		for _, req := range reqs {
			res, err := sys.Recommend(ctx, req)
			if err != nil {
				t.Fatalf("recommend %+v: %v", req, err)
			}
			if !res.Explored {
				t.Fatalf("explore-mode response not marked Explored: %+v", req)
			}
			g := goldenExploreResult{
				User:         req.UserID,
				CurrentVideo: req.CurrentVideo,
				Seeds:        res.Seeds,
				Candidates:   res.Candidates,
				HotMerged:    res.HotMerged,
				Videos:       make([]goldenEntry, 0, len(res.Videos)),
				Arms:         make([]string, 0, len(res.Arms)),
			}
			for _, e := range res.Videos {
				g.Videos = append(g.Videos, goldenEntry{ID: e.ID, Score: roundScore(e.Score)})
			}
			for _, a := range res.Arms {
				g.Arms = append(g.Arms, a.String())
			}
			out.Results = append(out.Results, g)

			if len(res.Videos) > 0 {
				clickAt = clickAt.Add(time.Second)
				click := feedback.Action{
					UserID:    req.UserID,
					VideoID:   res.Videos[0].ID,
					Type:      feedback.Click,
					Timestamp: clickAt,
				}
				if err := sys.Ingest(ctx, click); err != nil {
					t.Fatalf("feedback click: %v", err)
				}
			}
		}
	}

	st, err := sys.Bandit.State(ctx)
	if err != nil {
		t.Fatalf("final bandit state: %v", err)
	}
	out.FinalPulls = append(out.FinalPulls, st.Pulls[:]...)
	out.FinalWins = append(out.FinalWins, st.Wins[:]...)
	return out
}

func TestGoldenExplore(t *testing.T) {
	got := buildGoldenExplore(t)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenExplorePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenExplorePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d results)", goldenExplorePath, len(got.Results))
		return
	}

	want, err := os.ReadFile(goldenExplorePath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("explored serving output diverged from %s — if the change is intended, refresh with -update", goldenExplorePath)
	}
}

// TestGoldenExploreIsDeterministic proves the satellite's determinism claim
// directly: two full same-seed explore runs — sampling, attribution, reward
// feedback and all — produce byte-identical slates, arm tags, and final
// posterior counters.
func TestGoldenExploreIsDeterministic(t *testing.T) {
	a, err := json.Marshal(buildGoldenExplore(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(buildGoldenExplore(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two same-seed explore replays disagree — the bandit is consulting unseeded randomness or the wall clock")
	}
}
