package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"vidrec/internal/core"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
	"vidrec/internal/intern"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/topn"
	"vidrec/internal/topology"
)

// Sizes of the in-process replay. They are counts, not durations, so the
// traced run does the same work on every box.
const (
	replayRequests = 3000 // /recommend trace prefix replayed through sys.Recommend
	replayActions  = 1500 // held-out actions replayed through sys.Ingest
	probeRequests  = 600  // requests whose stage calls are timed one by one
	probeActions   = 600
	probeKeyOps    = 4000  // operations of the key trace each decorator stack replays
	syncPrefix     = 20000 // training actions the single-threaded baseline topology runs
)

// systemOptions mirrors what cmd/recserve derives from the workload's flags.
func systemOptions(wl workload) recommend.Options {
	opts := recommend.DefaultOptions()
	opts.ExploreSeed = 1 // recserve's -explore-seed default
	opts.Quantized = slices.Contains(wl.ServerFlags, "-quantized")
	opts.ANN = slices.Contains(wl.ServerFlags, "-ann")
	opts.Explore = slices.Contains(wl.ServerFlags, "-explore")
	return opts
}

// storeStack is the in-process copy of the storage tier recserve (and
// kvserver) would assemble for the workload, with a spanStore at every
// boundary the harness can reach from outside the packages.
type storeStack struct {
	top     *spanStore       // handed to recommend.NewSystem: post-cache traffic
	locals  []*kvstore.Local // the backing stores, for hit-rate counters
	closers []func()
}

func (s *storeStack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// buildStack assembles, for an embedded workload, span ∘ Local; for the remote
// one, span ∘ Resilient ∘ span ∘ net client → TCP → Sharded → two ShardGroups,
// each over span ∘ Local primary and backup — kvserver -shard-groups 2 behind
// recserve -kv, in one process.
func buildStack(ctx context.Context, wl workload, tr *tracer) (*storeStack, error) {
	st := &storeStack{}
	if !wl.Remote {
		local := kvstore.NewLocal(64)
		st.locals = []*kvstore.Local{local}
		st.top = newSpanStore(local, tr, "store", 1)
		st.top.keepKeys = true
		return st, nil
	}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	groups := make([]*kvstore.ShardGroup, 2)
	for gi := range groups {
		primary, backup := kvstore.NewLocal(64), kvstore.NewLocal(64)
		st.locals = append(st.locals, primary)
		g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", gi),
			newSpanStore(primary, tr, "replica", 3), newSpanStore(backup, tr, "replica", 3))
		if err != nil {
			return nil, err
		}
		groups[gi] = g
	}
	coord, err := kvstore.NewCoordinator(groups...)
	if err != nil {
		return nil, err
	}
	router, err := kvstore.NewSharded(coord, 1)
	if err != nil {
		return nil, err
	}
	srv, err := kvstore.NewServer(ctx, router, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { _ = srv.Close() }) // teardown of a loopback listener
	cli, err := kvstore.DialContext(ctx, srv.Addr())
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { _ = cli.Close() }) // teardown of pooled loopback conns
	resilient := kvstore.NewResilient(newSpanStore(cli, tr, "net", 2), kvstore.DefaultResilienceConfig(), 1)
	st.top = newSpanStore(resilient, tr, "store", 1)
	st.top.keepKeys = true
	ok = true
	return st, nil
}

// newTrainedSystem builds a system over store and fills its catalog and
// profiles the way recserve's loader does.
func newTrainedSystem(ctx context.Context, store kvstore.Store, wl workload, corp *corpus) (*recommend.System, error) {
	sys, err := recommend.NewSystem(store, core.DefaultParams(), simtable.DefaultConfig(), systemOptions(wl))
	if err != nil {
		return nil, err
	}
	if err := corp.data.FillCatalog(ctx, sys.Catalog); err != nil {
		return nil, err
	}
	if err := corp.data.FillProfiles(ctx, sys.Profiles); err != nil {
		return nil, err
	}
	return sys, nil
}

// replayTopology streams actions through the Figure 2 topology over sys and
// returns actions per second.
func replayTopology(ctx context.Context, sys *recommend.System, actions []feedback.Action, opt topology.Options) (float64, error) {
	topo, err := topology.BuildWithOptions(sys,
		func(int) topology.Source { return topology.SliceSource(actions) }, topology.DefaultParallelism(), opt)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := topo.Run(ctx); err != nil {
		return 0, err
	}
	return float64(len(actions)) / time.Since(start).Seconds(), nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayStep is one operation of the in-process replay.
type replayStep struct {
	req *recRequest      // nil for an action
	act *feedback.Action // nil for a request
}

// replayPlan orders the traced replay like the workload's traffic: requests
// and actions interleaved in the ratio of its open-loop rates, or — for a
// write-tail workload — every request, then every action.
func replayPlan(wl workload, reqs []recRequest, acts []feedback.Action) []replayStep {
	plan := make([]replayStep, 0, len(reqs)+len(acts))
	if wl.WriteTail {
		for i := range reqs {
			plan = append(plan, replayStep{req: &reqs[i]})
		}
		for i := range acts {
			plan = append(plan, replayStep{act: &acts[i]})
		}
		return plan
	}
	ri, ai := 0, 0
	var credit float64 // actions owed per request sent
	perReq := wl.WriteRate / wl.ReadRate
	for ri < len(reqs) || ai < len(acts) {
		if ri < len(reqs) {
			plan = append(plan, replayStep{req: &reqs[ri]})
			ri++
			credit += perReq
		} else {
			credit = float64(len(acts) - ai)
		}
		for ; credit >= 1 && ai < len(acts); credit-- {
			plan = append(plan, replayStep{act: &acts[ai]})
			ai++
		}
	}
	return plan
}

// inProcessPass is pass (b) of the traced run: the same store stack, trained
// by the same topology, replaying the same seeded traces sequentially through
// sys.Recommend and sys.Ingest with spans around every call and every store
// operation beneath it; then the stage probes and the decorator probes.
func inProcessPass(ctx context.Context, cfg *runConfig, res *runResult, corp *corpus, reqs []recRequest) error {
	wl := cfg.wl
	tr := newTracer()
	st, err := buildStack(ctx, wl, tr)
	if err != nil {
		return err
	}
	defer st.close()
	sys, err := newTrainedSystem(ctx, st.top, wl, corp)
	if err != nil {
		return err
	}
	rate, err := replayTopology(ctx, sys, corp.train, topology.Options{})
	if err != nil {
		return err
	}
	res.set("topology.replay_actions_per_s", "1/s", rate)

	// The single-threaded baseline of the same job: storm's synchronous
	// scheduler over an embedded store, on a prefix of the same actions.
	syncSys, err := newTrainedSystem(ctx, kvstore.NewLocal(64), wl, corp)
	if err != nil {
		return err
	}
	if rate, err = replayTopology(ctx, syncSys, corp.train[:min(syncPrefix, len(corp.train))], topology.Options{Synchronous: true}); err != nil {
		return err
	}
	res.set("topology.sync_actions_per_s", "1/s", rate)

	reqs = reqs[:min(replayRequests, len(reqs))]
	acts := corp.heldOut[:min(replayActions, len(corp.heldOut))]
	recommendOnce := func(r *recRequest) (*recommend.Result, error) {
		return sys.Recommend(ctx, recommend.Request{UserID: r.user, CurrentVideo: r.video, N: slateSize})
	}
	// Warm-up, as against the live server: every request once.
	for i := range reqs {
		if _, err := recommendOnce(&reqs[i]); err != nil {
			return fmt.Errorf("in-process warm-up: %w", err)
		}
	}

	// The same requests untraced, traced, traced, untraced — ordered so that
	// neither side always runs on the warmer CPU. The in-process serve numbers
	// come from the untraced rounds, the tracing overhead from the difference.
	lat := make([]float64, len(reqs)) // per request, the faster of its two untraced rounds
	var untraced, traced time.Duration
	var reqID int64
	m0 := mallocs()
	for round, tracing := range []bool{false, true, true, false} {
		tr.on.Store(tracing)
		start := time.Now()
		for i := range reqs {
			reqID++
			tr.req.Store(reqID)
			t := tr.now()
			if _, err := recommendOnce(&reqs[i]); err != nil {
				return fmt.Errorf("in-process replay: %w", err)
			}
			d := float64(tr.now()-t) / 1e3
			if tracing {
				tr.record("recommend.Recommend", 0, t, tr.now(), 0)
			} else if lat[i] == 0 || d < lat[i] {
				lat[i] = d
			}
		}
		if tracing {
			traced += time.Since(start)
		} else {
			untraced += time.Since(start)
		}
		if round == 0 {
			res.set("recommend.recommend_allocs_per_op", "count", float64(mallocs()-m0)/float64(len(reqs)))
		}
	}
	overheadReqs := reqID
	res.set("trace.overhead_share", "ratio", (traced-untraced).Seconds()/untraced.Seconds())
	res.set("recommend.replay_p50_us", "us", median(lat))

	// Still traced: the plan that interleaves the actions.
	tr.on.Store(true)
	cache0 := sys.Cache().Snapshot()
	var kv0 []kvstore.StatsSnapshot
	for _, l := range st.locals {
		kv0 = append(kv0, l.Stats().Snapshot())
	}
	var ingestLat []float64
	var ingestAllocs uint64
	planOps := 0
	for _, step := range replayPlan(wl, reqs, acts) {
		reqID++
		tr.req.Store(reqID)
		planOps++
		if step.req != nil {
			start := tr.now()
			if _, err := recommendOnce(step.req); err != nil {
				return fmt.Errorf("in-process traced replay: %w", err)
			}
			tr.record("recommend.Recommend", 0, start, tr.now(), 0)
			continue
		}
		a0 := mallocs()
		start := tr.now()
		if err := sys.Ingest(ctx, *step.act); err != nil {
			return fmt.Errorf("in-process traced ingest: %w", err)
		}
		end := tr.now()
		tr.record("recommend.Ingest", 0, start, end, 0)
		ingestLat = append(ingestLat, float64(end-start)/1e3)
		ingestAllocs += mallocs() - a0
	}
	tr.on.Store(false)
	cache1 := sys.Cache().Snapshot()

	// Counters at the boundaries.
	lookups := float64(cache1.Hits + cache1.Misses - cache0.Hits - cache0.Misses)
	res.set("objcache.hit_rate", "ratio", float64(cache1.Hits-cache0.Hits)/max(lookups, 1))
	res.set("objcache.evictions_per_op", "count", float64(cache1.Evictions-cache0.Evictions)/float64(planOps))
	res.set("objcache.invalidations_per_op", "count", float64(cache1.Invalidations-cache0.Invalidations)/float64(planOps))
	var gets, hits uint64
	for i, l := range st.locals {
		s := l.Stats().Snapshot()
		gets += s.Gets - kv0[i].Gets
		hits += s.Hits - kv0[i].Hits
	}
	res.set("kvstore.hit_rate", "ratio", float64(hits)/float64(max(gets, 1)))

	slices.Sort(ingestLat)
	res.set("recommend.ingest_p50_us", "us", percentile(ingestLat, 0.50))
	res.set("recommend.ingest_p99_us", "us", percentile(ingestLat, 0.99))
	res.set("recommend.ingest_allocs_per_op", "count", float64(ingestAllocs)/float64(len(ingestLat)))
	var ingestTotal float64
	for _, l := range ingestLat {
		ingestTotal += l
	}
	res.set("recommend.ingest_seq_actions_per_s", "1/s", float64(len(ingestLat))/(ingestTotal/1e6))

	// Spans: link, attribute, write out.
	spans := tr.recorded()
	linkSpans(spans)
	summarizeSpans(res, spans, overheadReqs)
	if err := writeSpans(filepath.Join(cfg.outDir, "trace.jsonl"), spans); err != nil {
		return err
	}
	res.set("trace.spans", "count", float64(len(spans)))

	// The stage probes see the state the plan's actions left behind (longer
	// histories, invalidated cache entries, a clock that has moved), so the
	// whole call they are set against is timed again here, the same way:
	// fastest of a few rounds, per request.
	probed := reqs[:min(probeRequests, len(reqs))]
	whole := make([]float64, len(probed))
	for round := 0; round < 3; round++ {
		for i := range probed {
			d, err := timed(func() (err error) { _, err = recommendOnce(&probed[i]); return })
			if err != nil {
				return fmt.Errorf("in-process replay: %w", err)
			}
			if round == 0 || d < whole[i] {
				whole[i] = d
			}
		}
	}
	stages, err := stageProbes(ctx, res, sys, st, probed)
	if err != nil {
		return err
	}
	// Per request: what Recommend took minus what its probed stages took.
	residual := make([]float64, len(stages))
	for i, sum := range stages {
		residual[i] = whole[i] - sum
	}
	probedP50 := median(whole)
	res.set("recommend.stage_residual_us", "us", median(residual))
	res.Notes = append(res.Notes, fmt.Sprintf("stage residual: p50 %.1fus of a %.1fus in-process Recommend p50 over the probed requests, share %.2f (slot interning, hot merge, bandit re-rank, result assembly)",
		median(residual), probedP50, median(residual)/probedP50))
	if err := ingestProbes(ctx, res, sys, corp.heldOut[len(acts):]); err != nil {
		return err
	}
	cacheProbes(ctx, res, sys, reqs)
	return decoratorProbes(ctx, res, st.top.keyTrace())
}

// summarizeSpans derives the store-boundary metrics from the linked spans.
// Requests numbered up to overheadReqs belong to the traced copy of the
// untraced replay; the plan that follows them is what gets attributed.
func summarizeSpans(res *runResult, spans []span, overheadReqs int64) {
	type reqAgg struct {
		ingest   bool
		dur      int64
		storeOps int
		storeNs  int64
	}
	agg := make(map[int64]*reqAgg)
	get := func(req int64) *reqAgg {
		a := agg[req]
		if a == nil {
			a = &reqAgg{}
			agg[req] = a
		}
		return a
	}
	var mgetKeys []float64
	for _, s := range spans {
		if s.Req <= overheadReqs {
			continue
		}
		a := get(s.Req)
		switch {
		case s.Depth == 0:
			a.dur, a.ingest = s.dur(), s.Name == "recommend.Ingest"
		case s.Depth == 1:
			a.storeOps++
			a.storeNs += s.dur()
			if s.Name == "store.mget" {
				mgetKeys = append(mgetKeys, float64(s.Keys))
			}
		}
	}
	var n, ops, dur, storeNs [2]float64 // [0] recommend, [1] ingest
	for _, a := range agg {
		k := 0
		if a.ingest {
			k = 1
		}
		n[k]++
		ops[k] += float64(a.storeOps)
		dur[k] += float64(a.dur)
		storeNs[k] += float64(a.storeNs)
	}
	res.set("kvstore.ops_per_recommend", "count", ops[0]/max(n[0], 1))
	res.set("kvstore.ops_per_ingest", "count", ops[1]/max(n[1], 1))
	res.set("kvstore.time_share_recommend", "ratio", storeNs[0]/max(dur[0], 1))
	res.set("kvstore.time_share_ingest", "ratio", storeNs[1]/max(dur[1], 1))
	res.set("kvstore.keys_per_mget_p50", "count", median(mgetKeys))

	// Self time per layer: each span's duration minus what its children
	// cover, summed by layer and request kind. The parts add up to the whole.
	self := selfTimes(spans)
	var layerNs [2]map[string]float64
	layerNs[0], layerNs[1] = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		if a := agg[s.Req]; a != nil {
			k := 0
			if a.ingest {
				k = 1
			}
			layer, _, _ := strings.Cut(s.Name, ".")
			layerNs[k][layer] += float64(self[s.ID])
		}
	}
	for k, kind := range []string{"Recommend", "Ingest"} {
		if n[k] == 0 {
			continue
		}
		layers := make([]string, 0, len(layerNs[k]))
		for l := range layerNs[k] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		parts := make([]string, len(layers))
		for i, l := range layers {
			parts[i] = fmt.Sprintf("%s=%.1fus", l, layerNs[k][l]/n[k]/1e3)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("span self time per traced %s (mean of %.0f): %s", kind, n[k], strings.Join(parts, " ")))
	}
}

func timed(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return us(time.Since(t)), err
}

// stageProbes calls each serve stage's public entry point with the arguments
// Recommend would pass it for the same request, three rounds over the probe
// requests, and reports each stage's p50. It returns, per request, the sum of
// its stage times in the last round, which the caller sets against what the
// whole request took.
func stageProbes(ctx context.Context, res *runResult, sys *recommend.System, st *storeStack, reqs []recRequest) ([]float64, error) {
	opts := sys.Options()
	now := sys.Now()
	// Quantized scoring needs intern slots, and the system's interner is its
	// own; a second model set over the same store and cache resolves its own.
	var q8 *demographic.ModelSet
	var slotsOf *intern.Table
	if opts.Quantized {
		var err error
		if q8, err = demographic.NewModelSet("sys", st.top, core.DefaultParams()); err != nil {
			return nil, err
		}
		q8.SetCache(sys.Cache())
		slotsOf = intern.New()
		q8.EnableQuantized(slotsOf)
	}
	global, err := sys.Models.For(demographic.GlobalGroup)
	if err != nil {
		return nil, err
	}
	var groupOf, watchedT, similarT, probeT, probeSlots, scoreT, scoreN, hotT, rankT []float64
	var hotBuf []topn.Entry
	ranker := topn.NewRanker(slateSize)
	var flat []string
	var slots []int32
	var probe []int32
	var scores []float64
	// best[i] is the smallest sum of request i's stage times over the rounds:
	// the same estimator (fastest of a few) the caller uses for the whole call.
	best := make([]float64, len(reqs))
	for round := 0; round < 3; round++ {
		for i := range reqs {
			r := &reqs[i]
			sum := 0.0
			var group string
			d, err := timed(func() (err error) { group, err = sys.Profiles.GroupOf(ctx, r.user); return })
			if err != nil {
				return nil, err
			}
			groupOf = append(groupOf, d)
			sum += d
			if group == "" {
				group = demographic.GlobalGroup
			}
			var watched []string
			var seen map[string]bool
			d, err = timed(func() (err error) {
				watched, seen, err = sys.History.Watched(ctx, r.user, opts.HistoryLimit)
				return
			})
			if err != nil {
				return nil, err
			}
			watchedT = append(watchedT, d)
			sum += d
			seeds := watched[:min(len(watched), opts.SeedCount)]
			if r.video != "" {
				seeds = []string{r.video}
			}
			tables, err := sys.Tables.For(group)
			if err != nil {
				return nil, err
			}
			d, err = timed(func() (err error) {
				flat, err = tables.SimilarIDs(ctx, seeds, opts.CandidatesPerSeed, now, flat[:0])
				return
			})
			if err != nil {
				return nil, err
			}
			similarT = append(similarT, d)
			sum += d
			cands := make([]string, 0, len(flat))
			dup := make(map[string]bool, len(flat))
			for _, id := range flat {
				if !seen[id] && !dup[id] && id != r.video && len(cands) < opts.MaxCandidates {
					dup[id] = true
					cands = append(cands, id)
				}
			}
			if idx := sys.ANN(); idx != nil {
				if uvec, _, known, err := global.UserVector(ctx, r.user); err != nil {
					return nil, err
				} else if known {
					d, _ = timed(func() error { probe = idx.Probe(uvec, probe); return nil })
					probeT = append(probeT, d)
					sum += d
					probeSlots = append(probeSlots, float64(len(probe)))
				}
			}
			// The hot list is read before scoring, as in Recommend: the hot
			// videos that may be merged are scored in the candidates' batch.
			var hot []topn.Entry
			d, err = timed(func() (err error) {
				hot, err = sys.Hot.HotInto(ctx, group, slateSize+len(seen), now, hotBuf[:0])
				return
			})
			if err != nil {
				return nil, err
			}
			hotT, hotBuf = append(hotT, d), hot[:0]
			sum += d
			numCand := len(cands)
			for _, e := range hot {
				if !seen[e.ID] && !dup[e.ID] && e.ID != r.video {
					cands = append(cands, e.ID)
				}
			}
			if len(cands) > 0 {
				model, err := sys.Models.For(group)
				if err != nil {
					return nil, err
				}
				if q8 != nil {
					qm, err := q8.For(group)
					if err != nil {
						return nil, err
					}
					slots = slotsOf.Slots(cands, slots[:0])
					d, err = timed(func() (err error) {
						scores, err = qm.ScoreCandidatesQ8(ctx, r.user, cands, slots, scores)
						return
					})
					if err != nil {
						return nil, err
					}
				} else if d, err = timed(func() (err error) { scores, err = model.ScoreCandidates(ctx, r.user, cands); return }); err != nil {
					return nil, err
				}
				scoreT = append(scoreT, d)
				sum += d
				scoreN = append(scoreN, d*1000/float64(len(cands)))
			}
			// Ranking the candidates is the last stage with a public entry
			// point; the harness pushes the same scores through the same
			// ranker type.
			if numCand > 0 && len(scores) >= numCand {
				d, _ = timed(func() error {
					ranker.Reset()
					for i := 0; i < numCand; i++ {
						ranker.Push(cands[i], scores[i])
					}
					_ = ranker.All()
					return nil
				})
				rankT = append(rankT, d)
				sum += d
			}
			if round == 0 || sum < best[i] {
				best[i] = sum
			}
		}
	}
	res.set("demographic.group_of_p50_us", "us", median(groupOf))
	res.set("history.watched_p50_us", "us", median(watchedT))
	res.set("simtable.similar_ids_p50_us", "us", median(similarT))
	res.set("ann.probe_p50_us", "us", median(probeT))
	res.set("ann.probe_slots_p50", "count", median(probeSlots))
	res.set("core.score_p50_us", "us", median(scoreT))
	res.set("core.score_ns_per_candidate", "ns", median(scoreN))
	res.set("demographic.hot_p50_us", "us", median(hotT))
	return best, nil
}

// ingestProbes times the ingest path's stage calls — the calls System.Ingest
// makes, with its arguments — over held-out actions the replay has not used.
func ingestProbes(ctx context.Context, res *runResult, sys *recommend.System, acts []feedback.Action) error {
	opts := sys.Options()
	weights := sys.Weights()
	global, err := sys.Models.For(demographic.GlobalGroup)
	if err != nil {
		return err
	}
	tables, err := sys.Tables.For(demographic.GlobalGroup)
	if err != nil {
		return err
	}
	var processT, recordT, appendT, pairT []float64
	pairs, positive := 0, 0
	for _, a := range acts[:min(probeActions, len(acts))] {
		d, err := timed(func() (err error) { _, err = global.ProcessAction(ctx, a); return })
		if err != nil {
			return err
		}
		w := weights.Weight(a)
		if w <= 0 {
			continue // an impression only moves the global mean; the stages below never see it
		}
		processT = append(processT, d)
		positive++
		if d, err = timed(func() error { return sys.Hot.Record(ctx, demographic.GlobalGroup, a.VideoID, w, a.Timestamp) }); err != nil {
			return err
		}
		recordT = append(recordT, d)
		recent, err := sys.History.RecentVideos(ctx, a.UserID, opts.PairWindow)
		if err != nil {
			return err
		}
		if d, err = timed(func() error { return sys.History.Append(ctx, a.UserID, a.VideoID, a.Timestamp) }); err != nil {
			return err
		}
		appendT = append(appendT, d)
		for _, p := range simtable.Pairs(a.VideoID, recent) {
			pairs++
			d, err = timed(func() error {
				score, err := tables.PairScore(ctx, global, sys.Catalog, p[0], p[1])
				if err != nil {
					return err
				}
				if err := tables.UpdateDirected(ctx, p[0], p[1], score, a.Timestamp); err != nil {
					return err
				}
				return tables.UpdateDirected(ctx, p[1], p[0], score, a.Timestamp)
			})
			if err != nil {
				return err
			}
			pairT = append(pairT, d)
		}
	}
	res.set("core.process_action_p50_us", "us", median(processT))
	res.set("demographic.hot_record_p50_us", "us", median(recordT))
	res.set("history.append_p50_us", "us", median(appendT))
	res.set("simtable.pair_update_p50_us", "us", median(pairT))
	res.set("simtable.pairs_per_action", "count", float64(pairs)/float64(max(positive, 1)))
	return nil
}

// cacheProbes times one real read-through — History.Watched — on the cache's
// two paths: every entry dropped first (miss: store read, decode, install),
// then again (hit).
func cacheProbes(ctx context.Context, res *runResult, sys *recommend.System, reqs []recRequest) {
	users := traceUsers(reqs)
	users = users[:min(500, len(users))]
	limit := sys.Options().HistoryLimit
	pass := func() []float64 {
		out := make([]float64, 0, len(users))
		for _, u := range users {
			t := time.Now()
			_, _, _ = sys.History.Watched(ctx, u, limit) // errors surfaced by the replay above; this only times the path
			out = append(out, float64(time.Since(t)))
		}
		return out
	}
	sys.FlushCaches()
	res.set("objcache.miss_ns", "ns", median(pass()))
	res.set("objcache.hit_ns", "ns", median(pass()))
}
