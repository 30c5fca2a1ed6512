package recommend

import (
	"context"
	"fmt"
	"testing"

	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/kvstore"
	"vidrec/internal/simtable"
)

// remoteStack starts the serve-remote storage tier in process — a kvserver
// over two primary/backup shard groups behind the Sharded router — and
// returns the server and recserve's client side of it: Resilient over the
// network client.
func remoteStack(t *testing.T) (*kvstore.Server, kvstore.Store) {
	t.Helper()
	ctx := context.Background()
	groups := make([]*kvstore.ShardGroup, 2)
	for i := range groups {
		g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", i), kvstore.NewLocal(16), kvstore.NewLocal(16))
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	coord, err := kvstore.NewCoordinator(groups...)
	if err != nil {
		t.Fatal(err)
	}
	router, err := kvstore.NewSharded(coord, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvstore.NewServer(ctx, router, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() }) // teardown; the test has its verdict
	cli, err := kvstore.DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() }) // teardown; the test has its verdict
	return srv, kvstore.NewResilient(cli, kvstore.DefaultResilienceConfig(), 1)
}

// TestIngestFramesPerAction counts, at the server, the round trips a
// sequential Ingest costs on the serve-remote corpus (800 users, 400 videos,
// four days replayed, the fifth held out): reads and writes together at most
// 3.5 frames per held-out action, and exactly one — every trained model's
// mean fold — for an action without weight.
func TestIngestFramesPerAction(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a four-day corpus over TCP")
	}
	ctx := context.Background()
	cfg := dataset.DefaultConfig()
	cfg.Seed, cfg.Users, cfg.Videos, cfg.Days, cfg.EventsPerDay = 1, 800, 400, 5, 800
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, store := remoteStack(t)
	sys, err := NewSystem(store, core.DefaultParams(), simtable.DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FillCatalog(ctx, sys.Catalog); err != nil {
		t.Fatal(err)
	}
	if err := d.FillProfiles(ctx, sys.Profiles); err != nil {
		t.Fatal(err)
	}
	train, heldOut := dataset.SplitByDay(d.AllActions(), cfg.Start, 4)
	for _, a := range train {
		if err := sys.Ingest(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	start := srv.Requests()
	zeroChecked, positive, positiveFrames := 0, 0, uint64(0)
	seen := make(map[string]bool) // users whose profile this run has read
	for _, a := range heldOut {
		before := srv.Requests()
		if err := sys.Ingest(ctx, a); err != nil {
			t.Fatal(err)
		}
		n := srv.Requests() - before
		switch {
		case sys.weights.Weight(a) > 0:
			positive++
			positiveFrames += n
		case seen[a.UserID]:
			if n != 1 {
				t.Fatalf("an action without weight (%v) cost %d frames, want 1", a.Type, n)
			}
			zeroChecked++
		}
		seen[a.UserID] = true
	}
	t.Logf("%d actions without weight by a user seen before: one frame each; %d positive: %.2f frames each",
		zeroChecked, positive, float64(positiveFrames)/float64(max(positive, 1)))
	if zeroChecked == 0 {
		t.Fatal("the held-out day has no action without weight")
	}
	perAction := float64(srv.Requests()-start) / float64(len(heldOut))
	t.Logf("%d held-out actions: %.2f frames each", len(heldOut), perAction)
	if perAction > 3.5 {
		t.Errorf("Ingest costs %.2f frames per held-out action, want <= 3.5", perAction)
	}
}
