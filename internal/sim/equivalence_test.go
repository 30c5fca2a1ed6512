package sim

import (
	"context"
	"fmt"
	"testing"

	"vidrec/internal/bandit"
	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/topology"
)

// TestSyncTopologyEqualsIngest is the write path's equivalence oracle: the
// same generated stream (raw nanosecond timestamps) trained through
// System.Ingest and through the synchronous Figure 2 topology must leave
// byte-identical stored state and equal model counters. Between the two
// halves of the stream both systems serve the same requests off their own
// stream clock, and the clicks on those slates ride in front of the second
// half — so with Explore on the reward line (attribution + fold) is compared
// too, and the served slates themselves must already agree.
func TestSyncTopologyEqualsIngest(t *testing.T) {
	ctx := context.Background()
	cfg := dataset.DefaultConfig()
	cfg.Users, cfg.Videos, cfg.Days, cfg.EventsPerDay = 100, 50, 2, 700
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actions := ds.AllActions()
	if len(actions) < 1000 {
		t.Fatalf("stream too short: %d actions", len(actions))
	}
	first, second := actions[:len(actions)/2], actions[len(actions)/2:]

	viaIngest := func(sys *recommend.System, batch []feedback.Action) error {
		for _, a := range batch {
			if err := sys.Ingest(ctx, a); err != nil {
				return err
			}
		}
		return nil
	}
	viaTopology := func(sys *recommend.System, batch []feedback.Action) error {
		topo, err := topology.BuildWithOptions(sys,
			func(int) topology.Source { return topology.SliceSource(batch) },
			topology.DefaultParallelism(), topology.Options{Synchronous: true})
		if err != nil {
			return err
		}
		return topo.Run(ctx)
	}

	// run trains one fresh system through write and reports its state digest,
	// its serve-phase slates and every model's counters.
	run := func(t *testing.T, opts recommend.Options, write func(*recommend.System, []feedback.Action) error) (string, string, string) {
		t.Helper()
		base := kvstore.NewLocal(32)
		params := core.DefaultParams()
		params.Factors = 8
		sys, err := recommend.NewSystem(base, params, simtable.DefaultConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.FillCatalog(ctx, sys.Catalog); err != nil {
			t.Fatal(err)
		}
		if err := ds.FillProfiles(ctx, sys.Profiles); err != nil {
			t.Fatal(err)
		}
		if err := write(sys, first); err != nil {
			t.Fatal(err)
		}
		var results []*recommend.Result
		var clicks []feedback.Action
		for i, u := range ds.Users()[:40] {
			res, err := sys.Recommend(ctx, recommend.Request{UserID: u.ID, N: 5})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
			if len(res.Videos) > 0 {
				clicks = append(clicks, feedback.Action{
					UserID: u.ID, VideoID: res.Videos[i%len(res.Videos)].ID,
					Type: feedback.Click, Timestamp: sys.Now(),
				})
			}
		}
		if err := write(sys, append(clicks, second...)); err != nil {
			t.Fatal(err)
		}
		stats := ""
		for _, g := range sys.Models.Groups() {
			m, err := sys.Models.For(g)
			if err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			stats += fmt.Sprintf("%s: received %d trained %d skipped %d newUsers %d newItems %d diverged %d\n", g,
				st.Received.Load(), st.Trained.Load(), st.Skipped.Load(),
				st.NewUsers.Load(), st.NewItems.Load(), st.Diverged.Load())
		}
		if opts.Explore {
			// The comparison only covers the reward line if rewards flowed.
			raw, _, err := base.Get(ctx, kvstore.Key("sys.bandit", "arms"))
			if err != nil {
				t.Fatal(err)
			}
			st, _, err := bandit.DecodeState(raw)
			if err != nil {
				t.Fatal(err)
			}
			if st.Wins == [bandit.NumArms]float64{} {
				t.Error("exploring run credited no reward: the bandit line went unexercised")
			}
		}
		return StateDigest(base), serveDigest(results), stats
	}

	// Every run trains the demographic groups' models beside the global one;
	// the subtest names say so.
	for _, explore := range []bool{false, true} {
		for _, quantized := range []bool{false, true} {
			name := fmt.Sprintf("explore=%v/demographic=true/quantized=%v", explore, quantized)
			t.Run(name, func(t *testing.T) {
				opts := recommend.DefaultOptions()
				opts.Explore, opts.ExploreSeed = explore, 7
				opts.Quantized = quantized
				wantState, wantServed, wantStats := run(t, opts, viaIngest)
				gotState, gotServed, gotStats := run(t, opts, viaTopology)
				if gotServed != wantServed {
					t.Errorf("slates served after the first half differ: topology %s, Ingest %s", gotServed, wantServed)
				}
				if gotState != wantState {
					t.Errorf("state digest: topology %s, Ingest %s", gotState, wantState)
				}
				if gotStats != wantStats {
					t.Errorf("model counters:\ntopology\n%sIngest\n%s", gotStats, wantStats)
				}
			})
		}
	}
}
