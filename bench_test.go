package vidrec

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§6) — each regenerates the experiment at a reduced,
// bench-friendly scale through exactly the code paths cmd/experiments uses —
// plus micro-benchmarks for the production claims (millisecond serving,
// high-throughput model updates, topology scalability).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks take seconds per iteration by design; use
// -benchtime=1x for a quick pass.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/demographic"
	"vidrec/internal/experiments"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/topology"
)

// benchScale is a further-reduced workload so each experiment iteration
// stays in low single-digit seconds.
func benchScale() experiments.Scale {
	s := experiments.SmallScale()
	s.Dataset.Users = 300
	s.Dataset.Videos = 120
	s.Dataset.EventsPerDay = 3000
	s.Replicas = 1
	return s
}

// --- Experiment benchmarks: Tables ---

func BenchmarkTable3DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Actions == 0 {
			b.Fatal("empty dataset")
		}
	}
}

func BenchmarkTable4GroupStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkTable2GridSearch(b *testing.B) {
	s := benchScale()
	s.Dataset.EventsPerDay = 1500
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGridSearch(s, []float64{0.05}, []float64{0.04}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5CTRLifts(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(s, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Fig7.Report.Variants) != 4 {
			b.Fatal("missing variants")
		}
	}
}

// --- Experiment benchmarks: Figures ---

func BenchmarkFig3GlobalVsGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkFig4RecallAtN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkFig5AvgRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Ranks) == 0 {
			b.Fatal("no ranks")
		}
	}
}

func BenchmarkFig7OnlineCTR(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(s, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Total["rMF"].Impressions == 0 {
			b.Fatal("rMF served nothing")
		}
	}
}

// --- Ablation benchmarks (design choices DESIGN.md calls out) ---

func BenchmarkAblationFreshness(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFreshness(s, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Total["rMF-online"].Impressions == 0 {
			b.Fatal("online variant served nothing")
		}
	}
}

func BenchmarkAblationDecay(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDecayAblation(s, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Total["decay-24h"].Impressions == 0 {
			b.Fatal("decay variant served nothing")
		}
	}
}

// --- Production micro-benchmarks (§6's deployment claims) ---

func benchActions(n int) []feedback.Action {
	cfg := dataset.DefaultConfig()
	cfg.Users = 500
	cfg.Videos = 200
	cfg.Days = 1
	cfg.EventsPerDay = n
	d, err := dataset.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d.AllActions()
}

// BenchmarkMFProcessAction measures single-step online model updates
// (Algorithm 1) end to end through the key-value store.
func BenchmarkMFProcessAction(b *testing.B) {
	actions := benchActions(20000)
	m, err := core.NewModel("bench", kvstore.NewLocal(64), core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ProcessAction(context.Background(), actions[i%len(actions)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMFStep measures the pure SGD arithmetic without storage.
func BenchmarkMFStep(b *testing.B) {
	p := core.DefaultParams()
	s := core.State{
		UserVec: make([]float64, p.Factors),
		ItemVec: make([]float64, p.Factors),
	}
	for i := range s.UserVec {
		s.UserVec[i] = 0.01 * float64(i%7)
		s.ItemVec[i] = 0.02 * float64(i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = p.Step(s, 0.5, 1, 2.5)
	}
}

// BenchmarkScoreCandidates measures the serving hot path: one user against
// 200 candidate videos (Eq. 2 each).
func BenchmarkScoreCandidates(b *testing.B) {
	actions := benchActions(5000)
	m, _ := core.NewModel("bench", kvstore.NewLocal(64), core.DefaultParams())
	for _, a := range actions {
		m.ProcessAction(context.Background(), a)
	}
	candidates := make([]string, 200)
	for i := range candidates {
		candidates[i] = fmt.Sprintf("v%05d", i)
	}
	user := actions[0].UserID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ScoreCandidates(context.Background(), user, candidates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimTableUpdate measures one incremental similar-table write.
func BenchmarkSimTableUpdate(b *testing.B) {
	t, err := simtable.New("bench", kvstore.NewLocal(64), simtable.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	base := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := fmt.Sprintf("v%03d", i%100)
		other := fmt.Sprintf("v%03d", (i+1+i%37)%100)
		if owner == other {
			other = "vx"
		}
		if err := t.UpdateDirected(context.Background(), owner, other, 0.5, base.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimTableQuery measures a similar-video lookup with decay.
func BenchmarkSimTableQuery(b *testing.B) {
	t, _ := simtable.New("bench", kvstore.NewLocal(64), simtable.DefaultConfig())
	base := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		t.UpdateDirected(context.Background(), "seed", fmt.Sprintf("v%03d", i), 0.9-0.01*float64(i), base)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Similar(context.Background(), "seed", 20, base.Add(time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngest measures the sequential full-pipeline state transition per
// action (model + history + hot + similar tables) on a trained system: three
// days of a serve-warm-shaped corpus are ingested first, so the similar
// tables and hot lists being rewritten sit at their size limits, and the
// fourth day is what is timed. Into an empty store the same call costs less
// than half as much and says nothing about a running server.
func BenchmarkIngest(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Users = 1300
	cfg.Videos = 600
	cfg.Days = 4
	cfg.EventsPerDay = 2000
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := recommend.NewSystem(kvstore.NewLocal(64), core.DefaultParams(),
		simtable.DefaultConfig(), recommend.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	d.FillCatalog(context.Background(), sys.Catalog)
	d.FillProfiles(context.Background(), sys.Profiles)
	train, timed := dataset.SplitByDay(d.AllActions(), cfg.Start, 3)
	for _, a := range train {
		if err := sys.Ingest(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Ingest(context.Background(), timed[i%len(timed)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendLatency measures end-to-end request serving on a warm
// system — the paper's "latency of milliseconds" claim.
func BenchmarkRecommendLatency(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Users = 400
	cfg.Videos = 150
	cfg.Days = 1
	cfg.EventsPerDay = 8000
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := recommend.NewSystem(kvstore.NewLocal(64), core.DefaultParams(),
		simtable.DefaultConfig(), recommend.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	d.FillCatalog(context.Background(), sys.Catalog)
	d.FillProfiles(context.Background(), sys.Profiles)
	for _, a := range d.AllActions() {
		if err := sys.Ingest(context.Background(), a); err != nil {
			b.Fatal(err)
		}
	}
	users := d.Users()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Recommend(context.Background(), recommend.Request{UserID: users[i%len(users)].ID, N: 10})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkRecommend measures end-to-end request serving across the
// deployment matrix the serving fast path targets: embedded vs networked vs
// sharded store × cold vs warm decoded-value cache. Warm is the production
// steady state (every read served from the object cache); cold flushes the
// cache before each request, so every object is fetched and decoded again.
// The sharded column routes every request through the slot table into two
// primary/backup shard groups under a coordinator, pricing the replicated
// tier's routing and synchronous replication. The dataset shape matches
// BenchmarkRecommendLatency so numbers stay comparable across revisions;
// run it with `go test -run '^$' -bench '^BenchmarkRecommend$'
// -benchmem .`. The local store additionally runs the serving fast-path
// variants — int8 quantized scoring (score=q8) and LSH candidate retrieval
// (ann=on) — against the same dataset; the unsuffixed names remain the
// float/ann-off configurations so the matrix stays comparable across
// revisions.
func BenchmarkRecommend(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Users = 400
	cfg.Videos = 150
	cfg.Days = 1
	cfg.EventsPerDay = 8000
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	users := d.Users()

	build := func(b *testing.B, kv kvstore.Store, opts recommend.Options) *recommend.System {
		sys, err := recommend.NewSystem(kv, core.DefaultParams(),
			simtable.DefaultConfig(), opts)
		if err != nil {
			b.Fatal(err)
		}
		d.FillCatalog(context.Background(), sys.Catalog)
		d.FillProfiles(context.Background(), sys.Profiles)
		for _, a := range d.AllActions() {
			if err := sys.Ingest(context.Background(), a); err != nil {
				b.Fatal(err)
			}
		}
		return sys
	}

	run := func(sys *recommend.System, cold bool) func(b *testing.B) {
		return func(b *testing.B) {
			// Collect the garbage the builds and earlier sub-benchmarks left
			// behind: ResetTimer excludes setup time but not the GC debt it
			// created, and on small machines a collection landing inside the
			// timed loop dominates a microsecond-scale op. Twice, because a
			// single runtime.GC returns with the sweep still lazy — the next
			// allocations (our timed loop) would pay to sweep the dead spans
			// the cold variants left; starting a second cycle forces sweep
			// termination of the first. Before priming, not after — a GC
			// empties the scratch pools, and priming is what refills them
			// for the warm measurement.
			runtime.GC()
			runtime.GC()
			// Prime every rotating user once so the warm case measures
			// steady-state cache hits rather than first-touch misses.
			for i := range users {
				if _, err := sys.Recommend(context.Background(), recommend.Request{UserID: users[i].ID, N: 10}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					sys.FlushCaches()
					b.StartTimer()
				}
				if _, err := sys.Recommend(context.Background(), recommend.Request{UserID: users[i%len(users)].ID, N: 10}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("store=local", func(b *testing.B) {
		sys := build(b, kvstore.NewLocal(64), recommend.DefaultOptions())
		b.Run("cache=warm", run(sys, false))
		b.Run("cache=cold", run(sys, true))

		q8Opts := recommend.DefaultOptions()
		q8Opts.Quantized = true
		sysQ8 := build(b, kvstore.NewLocal(64), q8Opts)
		b.Run("cache=warm/score=q8", run(sysQ8, false))
		b.Run("cache=cold/score=q8", run(sysQ8, true))

		annOpts := recommend.DefaultOptions()
		annOpts.ANN = true
		sysANN := build(b, kvstore.NewLocal(64), annOpts)
		b.Run("cache=warm/ann=on", run(sysANN, false))

		bothOpts := recommend.DefaultOptions()
		bothOpts.Quantized = true
		bothOpts.ANN = true
		sysBoth := build(b, kvstore.NewLocal(64), bothOpts)
		b.Run("cache=warm/score=q8/ann=on", run(sysBoth, false))
	})
	b.Run("store=net", func(b *testing.B) {
		srv, err := kvstore.NewServer(context.Background(), kvstore.NewLocal(64), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		cli, err := kvstore.DialContext(context.Background(), srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		sys := build(b, cli, recommend.DefaultOptions())
		b.Run("cache=warm", run(sys, false))
		b.Run("cache=cold", run(sys, true))
	})
	b.Run("store=sharded", func(b *testing.B) {
		groups := make([]*kvstore.ShardGroup, 2)
		for gi := range groups {
			g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", gi),
				kvstore.NewLocal(64), kvstore.NewLocal(64))
			if err != nil {
				b.Fatal(err)
			}
			groups[gi] = g
		}
		coord, err := kvstore.NewCoordinator(groups...)
		if err != nil {
			b.Fatal(err)
		}
		router, err := kvstore.NewSharded(coord, 1)
		if err != nil {
			b.Fatal(err)
		}
		sys := build(b, router, recommend.DefaultOptions())
		b.Run("cache=warm", run(sys, false))
		b.Run("cache=cold", run(sys, true))
	})
}

// BenchmarkTopologyThroughput streams a fixed workload through the Figure 2
// topology at two parallelism levels and reports actions/second.
func BenchmarkTopologyThroughput(b *testing.B) {
	actions := benchActions(4000)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := recommend.NewSystem(kvstore.NewLocal(64), core.DefaultParams(),
					simtable.DefaultConfig(), recommend.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				par := topology.Parallelism{
					Spout: 1, ComputeMF: p, MFStorage: p, UserHistory: p,
					GetItemPairs: p, ItemPairSim: p, ResultStorage: p,
				}
				topo, err := topology.Build(sys,
					func(int) topology.Source { return topology.SliceSource(actions) }, par)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := topo.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(actions))/time.Since(start).Seconds(), "actions/s")
			}
		})
	}
}

// BenchmarkKVStoreLocal measures the embedded store's core operations.
func BenchmarkKVStoreLocal(b *testing.B) {
	s := kvstore.NewLocal(64)
	val := kvstore.EncodeFloats(make([]float64, 40))
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Set(context.Background(), fmt.Sprintf("k%d", i%4096), val)
		}
	})
	b.Run("get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Get(context.Background(), fmt.Sprintf("k%d", i%4096))
		}
	})
}

// BenchmarkKVStoreNetwork measures a full TCP round trip to the networked
// store deployment.
func BenchmarkKVStoreNetwork(b *testing.B) {
	srv, err := kvstore.NewServer(context.Background(), kvstore.NewLocal(64), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := kvstore.DialContext(context.Background(), srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	val := kvstore.EncodeFloats(make([]float64, 40))
	cli.Set(context.Background(), "k", val)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cli.Get(context.Background(), "k"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotTracker measures demographic hot-list maintenance.
func BenchmarkHotTracker(b *testing.B) {
	h, err := demographic.NewHotTracker("bench", kvstore.NewLocal(16), 24*time.Hour, 100)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(context.Background(), demographic.GlobalGroup, fmt.Sprintf("v%03d", i%300), 1.5,
			base.Add(time.Duration(i)*time.Second))
	}
}
