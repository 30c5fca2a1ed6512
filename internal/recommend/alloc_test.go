package recommend

import (
	"context"
	"testing"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/simtable"
)

// TestDegradedWarmAllocs pins the allocation count of the degraded
// (demographic-fallback) serving path under a model blackout with a warm
// read cache, cross-checking alloccheck's static claims for System.degraded:
// the per-request cost is the failed personalized attempt (seed handling,
// the exclusion closure, the miss-path accumulators that fail into the
// blackout) plus the fallback itself, whose only allocations are the hatched
// ones — the hot list's damped copy-out, the filtered videos slice, and the
// Result. Availability under faults must not cost unbounded garbage: if this
// bound creeps, the fallback is allocating outside its hatched budget.
func TestDegradedWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates closures the serving path keeps on the stack, inflating the count")
	}
	ctx := context.Background()
	faulty := kvstore.NewFaulty(kvstore.NewLocal(16), 7)
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := NewSystem(faulty, params, simtable.DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c", "d", "e"} {
		if err := sys.Catalog.Put(ctx, catalog.Video{ID: v, Type: "movie", Length: time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		for _, v := range []string{"a", "b"} {
			if err := sys.Ingest(ctx, watch(u, v, min)); err != nil {
				t.Fatal(err)
			}
			min++
		}
	}
	for _, v := range []string{"c", "d", "e"} {
		if err := sys.Ingest(ctx, watch("u4", v, min)); err != nil {
			t.Fatal(err)
		}
		min++
	}
	// Black out the model/simtable namespace; history, hot lists, and
	// profiles (all under "sys.") stay healthy, so every request degrades.
	faulty.SetSchedule([]kvstore.FaultPhase{{FailRate: 1, KeyPrefix: "sys/"}})
	req := Request{UserID: "u1", N: 3}
	// First degraded request warms the fallback's cache entries.
	res, err := sys.Recommend(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("expected degraded response under model blackout")
	}
	avg := testing.AllocsPerRun(500, func() {
		res, err := sys.Recommend(ctx, req)
		if err != nil || !res.Degraded {
			t.Fatal("degraded request failed")
		}
	})
	// 18 measured: the degraded path matches the warm personalized budget.
	if avg > 18 {
		t.Fatalf("warm degraded Recommend allocates %v objects/op, want <= 18", avg)
	}
}

// TestWritePathAllocs pins what one action costs to fold in on a system that
// has been running: three days of a serve-warm-shaped corpus (1300 users, 600
// videos, ≈ 45k actions) are ingested first, so the similar tables sit at
// TableSize and the global hot list at HotCapacity, which is where a rewrite
// that decodes the list it changes costs the most. The three record rewrites
// allocate the Update closure, the store's copy of the value in and out, and
// the one encoded record — cross-checking alloccheck's claims for their
// // hotpath rewrite functions. The whole action pinned is the most expensive
// shape there is: a registered user (two trained groups, two hot lists) with a
// full pair window behind them, so 8 pairs × 2 groups × 2 directions = 32
// table rewrites at 4 each, plus 2 hot records and 1 history record — 140 of
// the 259 measured; scoring the pairs and the two MF steps are the rest. The
// list rebuild alone used to cost seven times the whole budget (1867).
func TestWritePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates closures and empties sync.Pool at random, inflating the count")
	}
	ctx := context.Background()
	cfg := dataset.DefaultConfig()
	cfg.Users, cfg.Videos, cfg.Days, cfg.EventsPerDay = 1300, 600, 3, 2000
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(kvstore.NewLocal(64), core.DefaultParams(), simtable.DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FillCatalog(ctx, sys.Catalog); err != nil {
		t.Fatal(err)
	}
	if err := d.FillProfiles(ctx, sys.Profiles); err != nil {
		t.Fatal(err)
	}
	var last feedback.Action // the last positive action by a registered user with a full pair window behind it
	for _, a := range d.AllActions() {
		if err := sys.Ingest(ctx, a); err != nil {
			t.Fatal(err)
		}
		if sys.weights.Weight(a) <= 0 {
			continue
		}
		recent, err := sys.History.RecentVideos(ctx, a.UserID, -1)
		if err != nil {
			t.Fatal(err)
		}
		group, err := sys.Profiles.GroupOf(ctx, a.UserID)
		if err != nil {
			t.Fatal(err)
		}
		if len(recent) > sys.opts.PairWindow && group != demographic.GlobalGroup {
			last = a
		}
	}
	if last.UserID == "" {
		t.Fatal("no positive action by a registered user with a full pair window")
	}
	tables, err := sys.Tables.For(demographic.GlobalGroup)
	if err != nil {
		t.Fatal(err)
	}
	owner := "" // a video whose similar table is full
	for _, v := range d.Videos() {
		if full, err := tables.Similar(ctx, v.Meta.ID, 1000, last.Timestamp); err != nil {
			t.Fatal(err)
		} else if len(full) == tables.Config().TableSize {
			owner = v.Meta.ID
			break
		}
	}
	if owner == "" {
		t.Fatalf("no similar table reached TableSize %d", tables.Config().TableSize)
	}
	if hot, err := sys.Hot.Hot(ctx, demographic.GlobalGroup, 1000, last.Timestamp); err != nil || len(hot) != sys.opts.HotCapacity {
		t.Fatalf("global hot list holds %d entries (%v), want a full %d", len(hot), err, sys.opts.HotCapacity)
	}
	other, ts := "a-video-not-in-the-table", last.Timestamp
	pins := []struct {
		name string
		max  float64
		op   func() error
	}{
		{"Tables.UpdateDirected", 4, func() error { return tables.UpdateDirected(ctx, owner, other, 0.4, ts) }},
		{"Hot.Record", 4, func() error { return sys.Hot.Record(ctx, demographic.GlobalGroup, last.VideoID, 1, ts) }},
		{"History.Append", 4, func() error { return sys.History.Append(ctx, last.UserID, last.VideoID, ts) }},
		{"Ingest of a positive action", 260, func() error { return sys.Ingest(ctx, last) }},
	}
	for _, pin := range pins {
		avg := testing.AllocsPerRun(200, func() {
			ts = ts.Add(time.Second)
			last.Timestamp = ts
			if err := pin.op(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs/op", pin.name, avg)
		if avg > pin.max {
			t.Errorf("%s allocates %v objects/op, want <= %v", pin.name, avg, pin.max)
		}
	}
}

// warmServeSystem trains a BenchmarkRecommend-shaped system (400 users, 150
// videos, one day of 8000 events) and serves every user once, so the item
// tables, the decoded-value cache and the scratch pools are warm. It returns
// the system, the user ids and the video ids.
func warmServeSystem(t *testing.T, opts Options) (*System, []string, []string) {
	t.Helper()
	ctx := context.Background()
	cfg := dataset.DefaultConfig()
	cfg.Users, cfg.Videos, cfg.Days, cfg.EventsPerDay = 400, 150, 1, 8000
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(kvstore.NewLocal(64), core.DefaultParams(), simtable.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FillCatalog(ctx, sys.Catalog); err != nil {
		t.Fatal(err)
	}
	if err := d.FillProfiles(ctx, sys.Profiles); err != nil {
		t.Fatal(err)
	}
	for _, a := range d.AllActions() {
		if err := sys.Ingest(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	var users, videos []string
	for _, u := range d.Users() {
		users = append(users, u.ID)
		if _, err := sys.Recommend(ctx, Request{UserID: u.ID, N: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range d.Videos() {
		videos = append(videos, v.Meta.ID)
	}
	return sys, users, videos
}

// TestWarmServeAllocs pins the warm personalized request, float and int8:
// both score from the item table into pooled scratch, so what a request
// allocates is the ranked list and the Result it returns — 2 objects — plus,
// for a registered user, the demographic group key Profile.Group builds.
func TestWarmServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates closures and empties sync.Pool at random, inflating the count")
	}
	for _, quantized := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Quantized = quantized
		sys, users, _ := warmServeSystem(t, opts)
		ctx := context.Background()
		var global, registered []string
		for _, u := range users {
			if sys.groupOf(ctx, u) == demographic.GlobalGroup {
				global = append(global, u)
			} else {
				registered = append(registered, u)
			}
		}
		for _, pin := range []struct {
			name  string
			users []string
			max   float64
		}{{"global-group users", global, 2}, {"registered users", registered, 3}} {
			if len(pin.users) == 0 {
				t.Fatalf("no %s in the corpus", pin.name)
			}
			i := 0
			avg := testing.AllocsPerRun(400, func() {
				if _, err := sys.Recommend(ctx, Request{UserID: pin.users[i%len(pin.users)], N: 10}); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("quantized=%v, %s: %v allocs/op", quantized, pin.name, avg)
			if avg > pin.max {
				t.Errorf("warm Recommend (quantized=%v, %s) allocates %v objects/op, want <= %v", quantized, pin.name, avg, pin.max)
			}
		}
	}
}

// TestServingSkipsObjcacheForItemParams checks the scorers read item
// parameters only from the item tables: with the decoded-value cache flushed
// under warm tables, serving every user again installs no item vector or
// bias in it — a read-through of either key would have.
func TestServingSkipsObjcacheForItemParams(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Quantized = quantized
		sys, users, videos := warmServeSystem(t, opts)
		ctx := context.Background()
		sys.Cache().Flush()
		for _, u := range users {
			if _, err := sys.Recommend(ctx, Request{UserID: u, N: 10}); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range sys.Models.Groups() {
			m, err := sys.Models.For(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range videos {
				for _, ns := range []string{".iv", ".ib"} {
					if _, _, ok := sys.Cache().Lookup(kvstore.Key(m.Name()+ns, id)); ok {
						t.Fatalf("quantized=%v: serving read %s's %s key through objcache", quantized, id, ns)
					}
				}
			}
		}
	}
}
