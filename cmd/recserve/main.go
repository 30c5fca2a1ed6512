// Command recserve runs the full real-time recommendation pipeline as an
// HTTP service: it generates (or reads) an action stream, streams it
// through the Figure 2 topology at startup, and serves recommendation
// requests against the live state — the deployment shape of §5, collapsed
// onto one machine.
//
// Endpoints:
//
//	GET /recommend?user=u00001&n=10[&video=v00042]   ranked recommendations
//	POST /action    body: TSV action lines (≤ 1 MiB)  ingest one action per line
//	GET /similar?video=v00042&n=10                    similar-video table
//	GET /stats                                        pipeline counters
//	POST /rebalance?slot=N&to=group                   migrate a shard slot (-shards only)
//	GET /healthz                                      liveness
//
// Usage:
//
//	recserve -addr :8080 [-data ./data] [-replay] [-kv addr | -shards mem:N|'p1,b1;p2,b2'] [-snapshot state.snap]
//
// With -kv, the one remote backend is wrapped in the resilient client stack
// (per-attempt deadline, bounded retries with jittered backoff, a circuit
// breaker — tune with -kv-timeout/-kv-retries/-breaker-threshold/
// -breaker-cooldown). When every personalized read path is down, /recommend
// answers from the demographic hot lists with "degraded": true instead of
// an error.
//
// With -shards, the storage tier is replicated and horizontally
// partitioned: the key space splits into 256 hash slots owned by
// primary/backup shard groups ("mem:N" embeds N in-process pairs;
// "p1,b1;p2,b2" dials remote kvservers, each behind the resilient client
// stack; "-shards a,b" is one replicated group over two kvservers). /stats
// reports the shard map and per-group counters, and POST /rebalance
// migrates a slot between groups under live traffic with the
// freeze→transfer→flip handoff.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/demographic"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
	"vidrec/internal/storm"
	"vidrec/internal/topology"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "HTTP listen address")
		data   = flag.String("data", "", "TSV data directory from recgen (empty: generate a small workload)")
		replay = flag.Bool("replay", true, "stream the workload through the topology at startup")
		kvAddr = flag.String("kv", "", "remote kvstore server address (empty: embedded store); replicate with -shards a,b instead")
		shards = flag.String("shards", "", "sharded storage tier: mem:N for N embedded primary/backup groups, or 'p1,b1;p2,b2' remote group addresses (first per group is primary); exclusive with -kv")
		snap   = flag.String("snapshot", "", "snapshot file for the embedded store: loaded at startup if present, saved on shutdown")

		kvTimeout  = flag.Duration("kv-timeout", kvstore.DefaultResilienceConfig().OpTimeout, "per-attempt deadline on remote kvstore operations (0 disables)")
		kvRetries  = flag.Int("kv-retries", kvstore.DefaultResilienceConfig().MaxRetries, "retries after a failed remote kvstore attempt")
		brkThresh  = flag.Int("breaker-threshold", kvstore.DefaultResilienceConfig().Breaker.Threshold, "consecutive failures that trip a backend's circuit breaker (0 disables)")
		brkCooldwn = flag.Duration("breaker-cooldown", kvstore.DefaultResilienceConfig().Breaker.Cooldown, "open-breaker cooldown before a half-open probe")

		explore   = flag.Bool("explore", false, "serve with bandit exploration: re-rank slates across the blended candidate sources and learn from click feedback")
		exploreSd = flag.Uint64("explore-seed", 1, "seed for the exploration policy's RNG (replayable slates)")

		quantized = flag.Bool("quantized", false, "rank with int8-quantized item vectors (the sub-10µs serving fast path)")
		ann       = flag.Bool("ann", false, "add LSH approximate-nearest-neighbour candidate retrieval as a third candidate source")
		annSeed   = flag.Uint64("ann-seed", recommend.DefaultOptions().ANNSeed, "seed for the LSH hyperplanes (replayable probes)")
	)
	flag.Parse()
	opts := recommend.DefaultOptions()
	opts.Explore = *explore
	opts.ExploreSeed = *exploreSd
	opts.Quantized = *quantized
	opts.ANN = *ann
	opts.ANNSeed = *annSeed
	rcfg := kvstore.DefaultResilienceConfig()
	rcfg.OpTimeout = *kvTimeout
	rcfg.MaxRetries = *kvRetries
	rcfg.Breaker.Threshold = *brkThresh
	rcfg.Breaker.Cooldown = *brkCooldwn
	// Root context for the process: cancelled on the first SIGINT/SIGTERM.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := checkStoreFlags(*kvAddr, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "recserve:", err)
		os.Exit(2)
	}
	if err := run(ctx, *addr, *data, *replay, *kvAddr, *shards, *snap, rcfg, opts); err != nil {
		fmt.Fprintln(os.Stderr, "recserve:", err)
		os.Exit(1)
	}
}

// checkStoreFlags refuses storage flag combinations before anything is
// built: -kv names one backend, and a replicated backend set is a shard
// group, which -shards builds.
func checkStoreFlags(kvAddr, shards string) error {
	if shards != "" && kvAddr != "" {
		return errors.New("-shards and -kv are mutually exclusive")
	}
	if strings.Contains(kvAddr, ",") {
		return fmt.Errorf("-kv takes one address, got %q; for a replicated primary/backup tier use -shards a,b", kvAddr)
	}
	return nil
}

// storeStack is the assembled storage tier plus the layer handles /stats
// reports from: the resilient decorators, one per remote backend.
type storeStack struct {
	kv         kvstore.Store
	local      *kvstore.Local       // non-nil only for the embedded store
	resilients []*kvstore.Resilient // one per remote backend
	addrs      []string

	// Sharded tier (non-nil only with -shards): the router the pipeline
	// writes through, its coordinator, and the shard groups for /stats and
	// the /rebalance endpoint.
	sharded *kvstore.Sharded
	coord   *kvstore.Coordinator
	groups  []*kvstore.ShardGroup
}

// buildStore assembles the storage tier: the embedded store when no address
// is given, otherwise one resilient client to the address.
func buildStore(ctx context.Context, kvAddr string, rcfg kvstore.ResilienceConfig) (*storeStack, func(), error) {
	if kvAddr == "" {
		local := kvstore.NewLocal(64)
		return &storeStack{kv: local, local: local}, func() {}, nil
	}
	dialCtx, dialCancel := context.WithTimeout(ctx, 10*time.Second)
	cli, err := kvstore.DialContext(dialCtx, kvAddr)
	dialCancel()
	if err != nil {
		return nil, nil, err
	}
	r := kvstore.NewResilient(cli, rcfg, 1)
	st := &storeStack{kv: r, resilients: []*kvstore.Resilient{r}, addrs: []string{kvAddr}}
	return st, func() { _ = cli.Close() }, nil // process exit: pooled conns die either way
}

// buildShardedStore assembles the partitioned tier from a -shards spec:
// "mem:N" builds N embedded primary/backup pairs; otherwise each
// semicolon-separated entry is one shard group's comma-separated replica
// addresses (first is the initial primary), every dialed backend wrapped in
// the same resilient client stack -kv uses.
func buildShardedStore(ctx context.Context, spec string, rcfg kvstore.ResilienceConfig) (*storeStack, func(), error) {
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	st := &storeStack{}
	if n, ok := strings.CutPrefix(spec, "mem:"); ok {
		count, err := strconv.Atoi(n)
		if err != nil || count < 1 || count > 256 {
			return nil, nil, fmt.Errorf("bad -shards %q: mem:N needs N in 1..256", spec)
		}
		for gi := 0; gi < count; gi++ {
			g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", gi), kvstore.NewLocal(16), kvstore.NewLocal(16))
			if err != nil {
				return nil, nil, err
			}
			st.groups = append(st.groups, g)
		}
	} else {
		for gi, groupSpec := range strings.Split(spec, ";") {
			var replicas []kvstore.Store
			for _, a := range strings.Split(groupSpec, ",") {
				a = strings.TrimSpace(a)
				if a == "" {
					closeAll()
					return nil, nil, fmt.Errorf("empty address in -shards group %d", gi)
				}
				dialCtx, dialCancel := context.WithTimeout(ctx, 10*time.Second)
				cli, err := kvstore.DialContext(dialCtx, a)
				dialCancel()
				if err != nil {
					closeAll()
					return nil, nil, err
				}
				closers = append(closers, func() { _ = cli.Close() }) // process exit: pooled conns die either way
				r := kvstore.NewResilient(cli, rcfg, uint64(gi*8+len(replicas))+1)
				st.resilients = append(st.resilients, r)
				st.addrs = append(st.addrs, a)
				replicas = append(replicas, r)
			}
			g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", gi), replicas...)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			st.groups = append(st.groups, g)
		}
	}
	coord, err := kvstore.NewCoordinator(st.groups...)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	router, err := kvstore.NewSharded(coord, 1)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	st.kv, st.coord, st.sharded = router, coord, router
	return st, closeAll, nil
}

func run(ctx context.Context, addr, dataDir string, replay bool, kvAddr, shards, snapshot string, rcfg kvstore.ResilienceConfig, opts recommend.Options) error {
	var st *storeStack
	var closeStore func()
	var err error
	if shards != "" {
		st, closeStore, err = buildShardedStore(ctx, shards, rcfg)
	} else {
		st, closeStore, err = buildStore(ctx, kvAddr, rcfg)
	}
	if err != nil {
		return err
	}
	defer closeStore()
	kv, local := st.kv, st.local
	if snapshot != "" && local != nil {
		if err := local.LoadSnapshot(ctx, snapshot); err != nil {
			log.Printf("snapshot not loaded (%v); starting cold", err)
		} else {
			n, _ := local.Len(ctx) // fails only once ctx is cancelled
			log.Printf("warm start: %d keys from %s", n, snapshot)
			replay = false // state restored; no need to re-stream
		}
	}

	params := core.DefaultParams()
	sys, err := recommend.NewSystem(kv, params, simtable.DefaultConfig(), opts)
	if err != nil {
		return err
	}

	replayMetrics, err := startup(ctx, sys, dataDir, replay)
	if err != nil {
		return err
	}

	mux := newMux(sys, st, replayMetrics)
	// BaseContext hands every request handler the process root context, so
	// request-scoped store calls are cancelled by shutdown as well as by
	// client disconnects.
	srv := &http.Server{
		Addr:        addr,
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Print("shutting down")
		if snapshot != "" && local != nil {
			if err := local.SaveSnapshot(snapshot); err != nil {
				log.Printf("snapshot save failed: %v", err)
			} else {
				log.Printf("state saved to %s", snapshot)
			}
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}

// newMux builds the HTTP API over an assembled system. replayMetrics may be
// nil when no startup replay ran.
func newMux(sys *recommend.System, st *storeStack, replayMetrics map[string]storm.MetricsSnapshot) *http.ServeMux {
	kv := st.kv
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = fmt.Fprintln(w, "ok") // best-effort: a vanished client needs no liveness reply
	})
	mux.HandleFunc("GET /recommend", func(w http.ResponseWriter, r *http.Request) {
		q := parseRecQuery(r.URL.RawQuery)
		if q.user == "" {
			http.Error(w, "missing user parameter", http.StatusBadRequest)
			return
		}
		res, err := sys.Recommend(r.Context(), recommend.Request{
			UserID:       q.user,
			CurrentVideo: q.video,
			N:            queryInt(q.n, 10),
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		respond(w, res, appendRecommend)
	})
	mux.HandleFunc("GET /similar", func(w http.ResponseWriter, r *http.Request) {
		q := parseRecQuery(r.URL.RawQuery)
		if q.video == "" {
			http.Error(w, "missing video parameter", http.StatusBadRequest)
			return
		}
		tables, err := sys.Tables.For(demographic.GlobalGroup)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		entries, err := tables.Similar(r.Context(), q.video, queryInt(q.n, 10), sys.Now())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		respond(w, entries, appendSimilar)
	})
	mux.HandleFunc("POST /action", func(w http.ResponseWriter, r *http.Request) {
		defer func() { _ = r.Body.Close() }() // net/http closes the body anyway; this just frees it early
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxActionBody))
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		parsed, err := parseActions(string(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, a := range parsed {
			if err := sys.Ingest(r.Context(), a); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		respond(w, len(parsed), appendIngested)
	})
	if st.sharded != nil {
		// Operator-driven slot migration: move one slot to a named group with
		// the freeze→transfer→flip handoff, under live traffic.
		mux.HandleFunc("POST /rebalance", func(w http.ResponseWriter, r *http.Request) {
			slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
			if err != nil || slot < 0 || slot >= kvstore.NumShardSlots {
				http.Error(w, fmt.Sprintf("slot must be in 0..%d", kvstore.NumShardSlots-1), http.StatusBadRequest)
				return
			}
			to := r.URL.Query().Get("to")
			if to == "" {
				http.Error(w, "missing to parameter (target group name)", http.StatusBadRequest)
				return
			}
			moved, err := st.coord.Rebalance(r.Context(), slot, to)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, map[string]any{
				"slot": slot, "to": to, "moved_keys": moved,
				"map_version": st.coord.Stats().Version,
			})
		})
	}
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		lat := sys.Latency.Snapshot()
		stats := map[string]any{
			"now": sys.Now(),
			"serving_latency": map[string]any{
				"count":   lat.Count,
				"mean_us": lat.Mean.Microseconds(),
				"p50_us":  lat.P50.Microseconds(),
				"p99_us":  lat.P99.Microseconds(),
				"max_us":  lat.Max.Microseconds(),
			},
		}
		if replayMetrics != nil {
			stats["replay_topology"] = replayMetrics
		}
		if sys.Options().Explore {
			st, err := sys.Bandit.State(r.Context())
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			arms := make(map[string]any, bandit.NumArms)
			for i := 0; i < bandit.NumArms; i++ {
				a := bandit.Arm(i)
				arms[a.String()] = map[string]any{
					"pulls":          st.Pulls[a],
					"wins":           st.Wins[a],
					"posterior_mean": st.Posterior(a).Mean(),
				}
			}
			stats["bandit"] = arms
		}
		if local, ok := kv.(*kvstore.Local); ok {
			snap := local.Stats().Snapshot()
			keys, _ := local.Len(r.Context()) // fails only on a cancelled request
			stats["kv"] = map[string]any{
				"keys": keys, "gets": snap.Gets, "sets": snap.Sets,
				"hit_rate": snap.HitRate(),
			}
		}
		if st.sharded != nil {
			cs := st.coord.Stats()
			rs := st.sharded.Stats()
			groups := make([]map[string]any, 0, len(st.groups))
			for _, g := range st.groups {
				gs := g.Stats()
				groups = append(groups, map[string]any{
					"name":        g.Name(),
					"primary":     g.PrimaryIndex(),
					"replicas":    g.Replicas(),
					"owned_slots": g.OwnedSlots(),
					"promotes":    gs.Promotes,
					"sync_skips":  gs.SyncSkips,
				})
			}
			stats["sharding"] = map[string]any{
				"map_version":   cs.Version,
				"rebalances":    cs.Rebalances,
				"moved_keys":    cs.MovedKeys,
				"redirects":     rs.Redirects,
				"frozen_waits":  rs.FrozenWaits,
				"map_refreshes": rs.MapRefreshes,
				"groups":        groups,
			}
		}
		if len(st.resilients) > 0 {
			backends := make([]map[string]any, 0, len(st.resilients))
			for i, res := range st.resilients {
				s := res.Stats()
				backends = append(backends, map[string]any{
					"addr":             st.addrs[i],
					"retries":          s.Retries,
					"exhausted":        s.Exhausted,
					"breaker_state":    res.Breaker().State().String(),
					"breaker_trips":    s.Breaker.Trips,
					"breaker_resets":   s.Breaker.Resets,
					"breaker_rejected": s.Breaker.Rejections,
				})
			}
			stats["resilience"] = map[string]any{"backends": backends}
		}
		writeJSON(w, stats)
	})
	return mux
}

// startup loads the workload into sys and, when replay is set, streams its
// actions through the topology. It returns the replay's per-component
// metrics, nil when no replay ran.
func startup(ctx context.Context, sys *recommend.System, dir string, replay bool) (map[string]storm.MetricsSnapshot, error) {
	src, closeSrc, err := loadWorkload(ctx, sys, dir, replay)
	if err != nil || src == nil {
		return nil, err
	}
	defer closeSrc()
	return replayActions(ctx, sys, src)
}

// loadWorkload loads the catalog and profiles into sys, from recgen's TSV
// files in dir or from a small generated workload when dir is empty. When
// replay is set it also returns the action stream and a func that releases
// it; otherwise the actions are not read at all.
//
// A file's actions are a reader over actions.tsv, not a loaded slice: at
// GOGC 100 the replay's heap peaks near twice its live heap, so a log held
// whole for the replay's length would count twice in the process's peak.
func loadWorkload(ctx context.Context, sys *recommend.System, dir string, replay bool) (topology.Source, func(), error) {
	if dir == "" {
		cfg := dataset.DefaultConfig()
		cfg.Users = 500
		cfg.Videos = 200
		cfg.Days = 3
		cfg.EventsPerDay = 5000
		d, err := dataset.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := d.FillCatalog(ctx, sys.Catalog); err != nil {
			return nil, nil, err
		}
		if err := d.FillProfiles(ctx, sys.Profiles); err != nil {
			return nil, nil, err
		}
		if !replay {
			return nil, nil, nil
		}
		return topology.SliceSource(d.AllActions()), func() {}, nil
	}

	videos, err := readTSV(filepath.Join(dir, "catalog.tsv"), dataset.ReadCatalog)
	if err != nil {
		return nil, nil, err
	}
	for _, v := range videos {
		if err := sys.Catalog.Put(ctx, v); err != nil {
			return nil, nil, err
		}
	}

	profiles, err := readTSV(filepath.Join(dir, "profiles.tsv"), dataset.ReadProfiles)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range profiles {
		if err := sys.Profiles.Put(ctx, p); err != nil {
			return nil, nil, err
		}
	}

	if !replay {
		return nil, nil, nil
	}
	f, err := os.Open(filepath.Join(dir, "actions.tsv"))
	if err != nil {
		return nil, nil, err
	}
	return dataset.NewActionReader(f), func() { _ = f.Close() }, nil // read-only descriptor
}

// replayActions streams src through the Figure 2 topology and returns each
// component's metrics. A source that stops on an error (a malformed line in
// actions.tsv) fails the startup with that error as the source worded it,
// after the actions before it have trained.
func replayActions(ctx context.Context, sys *recommend.System, src topology.Source) (map[string]storm.MetricsSnapshot, error) {
	log.Print("replaying the workload through the topology...")
	start := time.Now()
	topo, err := topology.Build(sys, func(int) topology.Source { return src }, topology.DefaultParallelism())
	if err != nil {
		return nil, err
	}
	err = topo.Run(ctx)
	if f, ok := src.(interface{ Err() error }); ok && f.Err() != nil {
		return nil, f.Err()
	}
	if err != nil {
		return nil, err
	}
	metrics := make(map[string]storm.MetricsSnapshot)
	for _, name := range topo.Components() {
		m, _ := topo.MetricsFor(name) // name comes from Components, always known
		metrics[name] = m
	}
	log.Printf("replayed %d actions in %v", metrics[topology.SpoutName].Emitted, time.Since(start).Round(time.Millisecond))
	return metrics, nil
}

// readTSV opens path and parses it with parse. The file is opened read-only,
// so its Close result carries no data-loss information and is dropped.
func readTSV[T any](path string, parse func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only descriptor
	return parse(f)
}

// maxActionBody bounds a POST /action body. It is the longest line
// dataset.ReadActions accepts, so nothing a file could hold is refused.
const maxActionBody = 1 << 20

// parseActions parses a POST /action body: TSV action lines, numbered and
// reported as dataset.ReadActions numbers and reports a file's.
func parseActions(body string) ([]feedback.Action, error) {
	var out []feedback.Action
	for n := 1; body != ""; n++ {
		var line string
		line, body, _ = strings.Cut(body, "\n")
		a, ok, err := dataset.ParseAction(line)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", n, err)
		}
		if ok {
			out = append(out, a)
		}
	}
	return out, nil
}

// writeJSON encodes v with encoding/json into a buffer and sends it as the
// JSON response; an encode error answers 500 with its message. The
// low-traffic endpoints (/stats, /rebalance) use it.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, buf.Bytes())
}
