package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vidrec/internal/feedback"
)

// runConfig is one invocation's inputs.
type runConfig struct {
	wl      workload
	seed    uint64
	seconds float64
	traced  bool
	outDir  string // benchmark/out/<workload>
	binDir  string
	buildS  float64
	log     func(format string, args ...any)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseReport is the request accounting every phase prints.
type phaseReport struct {
	Name      string `json:"name"`
	OpsSent   int    `json:"ops_sent"`
	OpsOK     int    `json:"ops_ok"`
	OpsFailed int    `json:"ops_failed"`
}

// checkReport is one output check's verdict.
type checkReport struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runResult is everything one run measured. Metrics holds the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one, plus a
// "<name>.spread" entry beside every metric that is a median over windows.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Valid     bool                   `json:"valid"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Phases    []phaseReport          `json:"phases"`
	Checks    []checkReport          `json:"checks"`
	Notes     []string               `json:"notes,omitempty"`
}

func (r *runResult) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, checkReport{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

func (r *runResult) phase(name string, sent, ok int) {
	r.Phases = append(r.Phases, phaseReport{Name: name, OpsSent: sent, OpsOK: ok, OpsFailed: sent - ok})
	r.Attempted += sent
	r.Failed += sent - ok
}

// deployment is the running programs under test for one workload.
type deployment struct {
	procs     []*proc // recserve, then kvserver when the store is remote
	addr      string
	execAt    time.Time
	healthyAt time.Time
}

func (d *deployment) stop() {
	if d == nil {
		return
	}
	for _, p := range d.procs {
		p.stop()
	}
}

// startDeployment launches the workload's processes and waits for recserve's
// first healthy answer, which comes only after it has loaded the TSV files
// and replayed the training actions through the topology.
func startDeployment(ctx context.Context, cfg *runConfig, dataDir string) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d.addr = addr
	args := []string{"-addr", addr, "-data", dataDir}
	d.execAt = time.Now()
	var kv *proc
	if cfg.wl.Remote {
		kvAddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		kv, err = startProc("kvserver", filepath.Join(cfg.binDir, "kvserver"), filepath.Join(cfg.outDir, "kvserver.log"),
			"-addr", kvAddr, "-shard-groups", "2", "-report", "0")
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, kv)
		if err := waitListening(ctx, kv, kvAddr); err != nil {
			return nil, err
		}
		args = append(args, "-kv", kvAddr)
	}
	args = append(args, cfg.wl.ServerFlags...)
	rec, err := startProc("recserve", filepath.Join(cfg.binDir, "recserve"), filepath.Join(cfg.outDir, "recserve.log"), args...)
	if err != nil {
		return nil, err
	}
	d.procs = append([]*proc{rec}, d.procs...)
	if d.healthyAt, err = waitHealthy(ctx, rec, addr); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// recBody is the JSON recserve answers /recommend with.
type recBody struct {
	Videos []struct {
		ID    string
		Score float64
	} `json:"videos"`
	Seeds      int      `json:"seeds"`
	Candidates int      `json:"candidates"`
	HotMerged  int      `json:"hot_merged"`
	Degraded   bool     `json:"degraded"`
	Explored   bool     `json:"explored"`
	LatencyUS  int64    `json:"latency_us"`
	Arms       []string `json:"arms"`
}

// click is a reader's follow-up for the writer: the user clicked the slate's
// top video.
type click struct{ user, video string }

// readerLane replays its share of the request trace on one connection.
type readerLane struct {
	c          *httpConn
	reqs       []recRequest
	pos        int
	clickEvery int
	clicks     chan<- click
	lastOK     bool
}

func (l *readerLane) issue() bool {
	status, err := l.c.roundTrip(l.reqs[l.pos%len(l.reqs)].raw)
	l.lastOK = err == nil && status == 200
	return l.lastOK
}

func (l *readerLane) settle() {
	i := l.pos
	l.pos++
	if l.clickEvery == 0 || i%l.clickEvery != 0 || !l.lastOK {
		return
	}
	var body recBody
	if err := json.Unmarshal(l.c.body, &body); err != nil || len(body.Videos) == 0 {
		return
	}
	select {
	case l.clicks <- click{user: l.reqs[i%len(l.reqs)].user, video: body.Videos[0].ID}:
	default: // the writer is behind; a dropped click is not a failed request
	}
}

// writerLane is the single writer: the held-out actions in timestamp order,
// with any pending click taking the next slot. A click is stamped with the
// newest timestamp already sent, so the stream stays non-decreasing.
type writerLane struct {
	c          *httpConn
	acts       []actRequest
	pos        int
	clicks     <-chan click
	lastTs     int64
	clicksSent int
}

func (l *writerLane) issue() bool {
	var raw []byte
	select {
	case ck := <-l.clicks:
		raw = renderPOST("/action", actionLine(l.lastTs, ck.user, ck.video, feedback.Click, 0, 0))
		l.clicksSent++
	default:
		a := l.acts[l.pos%len(l.acts)]
		l.pos++
		raw, l.lastTs = a.raw, max(l.lastTs, a.tsMs)
	}
	status, err := l.c.roundTrip(raw)
	return err == nil && status == 200
}

func (l *writerLane) settle() {}

// getJSON issues one GET on c and decodes a 200 body into v.
func getJSON(c *httpConn, path string, v any) error {
	status, err := c.roundTrip(renderGET(path))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, c.body)
	}
	if err := json.Unmarshal(c.body, v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

// serverStats is the part of recserve's /stats the harness reads.
type serverStats struct {
	ServingLatency struct {
		Count uint64 `json:"count"`
	} `json:"serving_latency"`
	ReplayTopology map[string]struct {
		Emitted, Executed, Failed, FailedTrees uint64
	} `json:"replay_topology"`
	Bandit map[string]struct {
		Pulls uint64  `json:"pulls"`
		Wins  float64 `json:"wins"`
	} `json:"bandit"`
	Resilience *struct {
		Backends []struct {
			Retries      uint64 `json:"retries"`
			Exhausted    uint64 `json:"exhausted"`
			BreakerTrips uint64 `json:"breaker_trips"`
		} `json:"backends"`
	} `json:"resilience"`
	Sharding *struct {
		Redirects uint64 `json:"redirects"`
	} `json:"sharding"`
}

// windowSet is the per-window summaries of one operation kind across a
// run's windows of one sort (open-loop or closed-loop).
type windowSet []kindStats

func (ws windowSet) values(f func(kindStats) float64) []float64 {
	out := make([]float64, len(ws))
	for i, s := range ws {
		out[i] = f(s)
	}
	return out
}

// setWindows records one metric from its windows' values: their better
// quartile — the first where lower is better, the third where higher is — and,
// beside it as "<name>.spread", how far apart the windows of this very run
// lie. Why not the median: what the shared host does to a window only ever
// slows it, for a second or for minutes on end, so the slow side of a run's
// windows is the host's and the fast side the program's. The better quartile
// still has a quarter of the windows beyond it, so one lucky second does not
// set it, and it holds until three windows in four are disturbed, where the
// median gives way at one in two.
func (r *runResult) setWindows(name, unit, better string, vals []float64) {
	v := median(vals)
	if len(vals) >= 2 {
		q1, q3 := quartiles(vals)
		if v = q1; better == higher {
			v = q3
		}
	}
	r.set(name, unit, v)
	r.set(name+".spread", "ratio", relSpread(vals))
}

// setSLOShare records the share of one kind's operations sent in the
// open-loop windows that were answered 200 within sloLimit of their due time,
// leaving out the fifth of the windows where that share was lowest. A share
// has no better quartile worth reporting (most windows read exactly 1), and
// over all windows it is the host's number: a vCPU taken away for half a
// second, which happens in one run in three here, is 2–6% of a run's
// operations late at once. Both tails over every window are in the notes.
func (r *runResult) setSLOShare(name string, ws windowSet) {
	byShare := slices.Clone(ws)
	slices.SortFunc(byShare, func(a, b kindStats) int { return cmp.Compare(b.sloShare, a.sloShare) })
	sent, met := 0, 0.0
	for _, s := range byShare[:len(byShare)-len(byShare)/5] {
		sent += s.sent
		met += s.sloShare * float64(s.sent)
	}
	r.set(name, "ratio", met/float64(max(sent, 1)))
	r.set(name+".spread", "ratio", relSpread(ws.values(func(s kindStats) float64 { return s.sloShare })))
}

func summarizeKind(windows []windowResult, k opKind) windowSet {
	ws := make(windowSet, 0, len(windows))
	for _, w := range windows {
		if len(w.samples[k]) > 0 {
			ws = append(ws, summarize(w.samples[k], w.dur))
		}
	}
	return ws
}

// pooled summarises one operation kind over all the given windows as if they
// were one: the tail quantiles come from here, because a one-second window
// does not hold the ten samples beyond p99 that a reported tail needs.
func pooled(windows []windowResult, k opKind) kindStats {
	var all []sample
	var dur time.Duration
	for _, w := range windows {
		if len(w.samples[k]) > 0 {
			all = append(all, w.samples[k]...)
			dur += w.dur
		}
	}
	return summarize(all, dur)
}

// phaseOps accounts a phase's operations and returns how many completed.
func (r *runResult) phaseOps(name string, windows []windowResult) int {
	sent, ok := 0, 0
	for _, w := range windows {
		for k := range w.samples {
			for _, s := range w.samples[k] {
				sent++
				if s.ok {
					ok++
				}
			}
		}
	}
	r.phase(name, sent, ok)
	return ok
}

const (
	traceRequests  = 40000 // length of the seeded /recommend trace; lanes wrap around it
	verifyRequests = 600   // trace prefix the verification pass decodes and checks
)

// runWorkload is the whole run of one workload: generate, set up, warm,
// verify, score recall, then the timed phases, then — for a traced run — the
// traced passes. The deployment is stopped before it returns.
func runWorkload(ctx context.Context, cfg *runConfig) (*runResult, error) {
	wl := cfg.wl
	res := &runResult{
		Workload: wl.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Correct: true, Valid: true, Metrics: make(map[string]metricValue),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}

	// Inputs: the corpus from dataSeed, the request trace over it from the
	// run's seed.
	genStart := time.Now()
	corp, err := generateCorpus(wl.Data, dataSeed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(cfg.outDir, "data")
	if err := corp.writeTSV(dataDir); err != nil {
		return nil, err
	}
	reqs := buildRequests(corp.train, cfg.seed, traceRequests)
	acts := buildActionRequests(corp.heldOut)
	genS := time.Since(genStart).Seconds()
	cfg.log("%s: %d train actions, %d held out (%d on the test day), generated in %.2fs",
		wl.Name, len(corp.train), len(corp.heldOut), len(corp.testDay), genS)

	// Set-up: start → healthy → every trace user requested once.
	dep, err := startDeployment(ctx, cfg, dataDir)
	if err != nil {
		return nil, err
	}
	defer dep.stop()
	warm := newHTTPConn(dep.addr)
	sent, ok := 0, 0
	for _, u := range traceUsers(reqs) {
		sent++
		if status, err := warm.roundTrip(renderGET(recommendPath(u, "", slateSize))); err == nil && status == 200 {
			ok++
		}
	}
	warm.close()
	res.phase("warm-up", sent, ok)
	res.set("setup_s", "s", genS+time.Since(dep.execAt).Seconds())
	res.set("topology.ingest_actions_per_s", "1/s", float64(len(corp.train))/dep.healthyAt.Sub(dep.execAt).Seconds())

	connA, connB := newHTTPConn(dep.addr), newHTTPConn(dep.addr)
	defer connA.close()
	defer connB.close()

	// Output checks that need a quiet, not-yet-written-to server.
	var before serverStats
	if err := getJSON(connA, "/stats", &before); err != nil {
		return nil, err
	}
	var stormFailed uint64
	for _, m := range before.ReplayTopology {
		stormFailed += m.Failed + m.FailedTrees
	}
	res.check("storm.failed_total", stormFailed == 0, "%d failed tuples or trees in the startup replay", stormFailed)
	verifySlates(res, connA, corp, reqs[:verifyRequests])
	recall, err := recallOverHTTP(res, connA, corp)
	if err != nil {
		return nil, err
	}
	res.set("eval.recall_at_10", "ratio", recall)
	res.check("eval.recall_at_10", recall >= wl.RecallFloor, "%.4f, floor %.4f", recall, wl.RecallFloor)

	// Timed phases.
	if err := timedPhases(cfg, res, dep, connA, connB, reqs, acts); err != nil {
		return nil, err
	}

	// Output checks over what the traffic did to the server.
	var after serverStats
	if err := getJSON(connA, "/stats", &after); err != nil {
		return nil, err
	}
	checkAfter(res, wl, &after)
	rss, err := peakRSSMB(dep.procs)
	if err != nil {
		return nil, err
	}
	res.set("rss_mb", "MB", rss)
	for _, p := range dep.procs {
		if p.exited() {
			res.check(p.name+".alive", false, "exited during the run: %v", p.waitErr)
		}
	}

	if cfg.traced {
		if err := tracedPasses(ctx, cfg, res, dep, connA, corp, reqs, &before, &after); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkAfter holds the output checks on the server's own counters once the
// traffic is over.
func checkAfter(res *runResult, wl workload, st *serverStats) {
	if wl.ClickEvery > 0 {
		var wins float64
		for _, arm := range st.Bandit {
			wins += arm.Wins
		}
		res.check("bandit.wins", wins > 0, "%.2f reward credited across arms from fed-back clicks", wins)
	}
	if wl.Remote {
		var retries, exhausted, trips uint64
		if st.Resilience != nil {
			for _, b := range st.Resilience.Backends {
				retries += b.Retries
				exhausted += b.Exhausted
				trips += b.BreakerTrips
			}
		}
		res.check("kvstore.resilience", st.Resilience != nil && retries+exhausted+trips == 0,
			"%d retries, %d exhausted, %d breaker trips on a healthy store", retries, exhausted, trips)
	}
}

// roundSeconds is the target length of one round of timed windows.
const roundSeconds = 2

// windowPlan is one sort of timed window: which lanes run, open- or
// closed-loop, and for what share of a round.
type windowPlan struct {
	name  string
	open  bool
	share float64
	lanes func(scale float64) []laneRun // scale multiplies the open-loop rates; 0 closes the loop
}

// timedPhases runs the open-loop and closed-loop windows and derives the
// latency, throughput and CPU metrics from them.
//
// The measured time is cut into rounds of about roundSeconds, and every round
// holds one window of each sort, so each metric is sampled across the whole
// run and reported from all of its windows (see setWindows). The machine's
// speed moves by ±10% from one second to the next and by as much, more slowly,
// over minutes; three long windows per sort, back to back (the first design),
// caught whatever their own few seconds were like, and ten runs of it lay
// 10–25% apart.
func timedPhases(cfg *runConfig, res *runResult, dep *deployment, connA, connB *httpConn, reqs []recRequest, acts []actRequest) error {
	wl := cfg.wl
	var clicks chan click
	if wl.ClickEvery > 0 {
		clicks = make(chan click, 64) // a burst of decoded slates waits here for the writer's next slots
	}
	half := len(reqs) / 2
	readA := &readerLane{c: connA, reqs: reqs[:half], clickEvery: wl.ClickEvery, clicks: clicks}
	readB := &readerLane{c: connB, reqs: reqs[half:]}
	writer := &writerLane{c: connB, acts: acts, clicks: clicks}

	var plans []windowPlan
	if wl.WriteTail {
		readers := func(scale float64) []laneRun {
			return []laneRun{{opRecommend, readA, scale * wl.ReadRate}, {opRecommend, readB, scale * wl.ReadRate}}
		}
		alone := func(scale float64) []laneRun { return []laneRun{{opAction, writer, scale * wl.WriteRate}} }
		plans = []windowPlan{
			{"open-loop.read", true, 1.0 / 3, readers}, {"closed-loop.read", false, 1.0 / 3, readers},
			{"open-loop.write", true, 1.0 / 6, alone}, {"closed-loop.write", false, 1.0 / 6, alone},
		}
	} else {
		// Both connections close their loops at once. Closing one kind at a
		// time, the other held at its rate, was tried and is worse: the busy
		// connection's throughput follows what the paced one leaves it.
		mixed := func(scale float64) []laneRun {
			return []laneRun{{opRecommend, readA, scale * wl.ReadRate}, {opAction, writer, scale * wl.WriteRate}}
		}
		plans = []windowPlan{{"open-loop", true, 0.5, mixed}, {"closed-loop", false, 0.5, mixed}}
	}

	// A traced run spends half the time on the rounds, so that loadgen.* has
	// the same meaning, and the rest on the decoded window, the 2× window and
	// its passes.
	rounds := max(3, int(cfg.seconds/roundSeconds))
	round := time.Duration(cfg.seconds / float64(rounds) * float64(time.Second))
	if cfg.traced {
		rounds = (rounds + 1) / 2
	}
	window := func(p windowPlan, scale float64) windowResult {
		if !p.open {
			scale = 0
		}
		return runWindow(wallClock{}, time.Duration(p.share*float64(round)), p.lanes(scale))
	}

	// One short window of each sort, not measured: new connections, a server
	// that has been idle since the recall pass.
	var leadIn []windowResult
	for _, p := range plans {
		leadIn = append(leadIn, runWindow(wallClock{}, round/12, p.lanes(0)))
	}
	res.phaseOps("lead-in", leadIn)

	// Server CPU is read around the open-loop windows: there the mix of
	// operations is fixed by the schedule, so CPU per operation compares
	// between runs; in a closed loop the mix itself moves with the speed.
	windows := make([][]windowResult, len(plans))
	var cpuPerOp []float64
	for r := 0; r < rounds; r++ {
		var cpuS float64
		ops := 0
		for i, p := range plans {
			c0, err := cpuSeconds(dep.procs)
			if err != nil {
				return err
			}
			w := window(p, 1)
			c1, err := cpuSeconds(dep.procs)
			if err != nil {
				return err
			}
			windows[i] = append(windows[i], w)
			if p.open {
				cpuS += c1 - c0
				for k := range w.samples {
					ops += len(w.samples[k])
				}
			}
		}
		cpuPerOp = append(cpuPerOp, cpuS*1e6/float64(max(ops, 1)))
	}
	var open, closed []windowResult
	for i, p := range plans {
		res.phaseOps(p.name, windows[i])
		if p.open {
			open = append(open, windows[i]...)
		} else {
			closed = append(closed, windows[i]...)
		}
	}

	if cfg.traced {
		// The traced run's two extra windows repeat the read-carrying 1×
		// window: pass (a), then twice the rates.
		if err := httpPass(res, time.Duration(float64(round)*plans[0].share), plans[0].lanes(1)); err != nil {
			return err
		}
		w := window(plans[0], 2)
		res.phaseOps("open-loop.2x", []windowResult{w})
		res.set("loadgen.p99_us_at_2x", "us", summarize(w.samples[opRecommend], w.dur).latTail)
		res.set("loadgen.backlog_max_at_2x", "count", float64(w.backlogMax))
	}

	ro, rc := summarizeKind(open, opRecommend), summarizeKind(closed, opRecommend)
	ao, ac := summarizeKind(open, opAction), summarizeKind(closed, opAction)
	p50 := func(s kindStats) float64 { return s.latP50 }
	rate := func(s kindStats) float64 { return s.achieved }
	res.setWindows("recommend_p50_us", "us", lower, ro.values(p50))
	res.setSLOShare("recommend_slo_share", ro)
	res.setWindows("recommend_rps", "1/s", higher, rc.values(rate))
	res.setWindows("action_p50_us", "us", lower, ao.values(p50))
	res.setSLOShare("action_slo_share", ao)
	res.setWindows("action_rps", "1/s", higher, ac.values(rate))
	res.setWindows("server_cpu_us_per_op", "us", lower, cpuPerOp)
	// The tails are over every operation of all open-loop windows, stalls
	// included: a one-second window does not hold the ten samples beyond p99
	// that a reported tail needs.
	for _, kind := range []struct {
		name string
		k    opKind
	}{{"recommend", opRecommend}, {"action", opAction}} {
		all := pooled(open, kind.k)
		res.set("loadgen."+kind.name+"_p99_us", "us", all.latTail)
		res.Notes = append(res.Notes, fmt.Sprintf("%-9s open-loop, all windows: %d samples, %.4f within the limit, p%.0f_us=%.0f with %d beyond it",
			kind.name, all.ok, all.sloShare, all.tailQ*100, all.latTail, all.beyondTail))
	}
	for _, set := range []struct {
		name string
		ws   windowSet
	}{{"recommend open-loop", ro}, {"action open-loop", ao}, {"recommend closed-loop", rc}, {"action closed-loop", ac}} {
		res.Notes = append(res.Notes, fmt.Sprintf("%-22s per window: p50_us=%.0f rps=%.0f", set.name, set.ws.values(p50), set.ws.values(rate)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%-22s per round:  %.0f", "server_cpu_us_per_op", cpuPerOp))
	recordLoadgen(res, open)
	return nil
}

// recordLoadgen reports how well the generator kept its own schedule over the
// 1× windows, and marks the run invalid — not slow — when it did not.
func recordLoadgen(res *runResult, open []windowResult) {
	var lag50, lag99, offered, achieved, svc50 []float64
	for i, w := range open {
		var l50, l99, off, ach, scheduled float64
		for k := range w.samples {
			if len(w.samples[k]) == 0 {
				continue
			}
			st := summarize(w.samples[k], w.dur)
			l50, l99 = max(l50, st.lagP50), max(l99, st.lagP99)
			off, ach = off+w.offered[k], ach+st.achieved
			// A window holds a whole number of slots: compare against what
			// it scheduled, not the nominal rate.
			scheduled += float64(st.sent) / w.dur.Seconds()
			if opKind(k) == opRecommend {
				svc50 = append(svc50, st.svcP50)
			}
		}
		lag50, lag99 = append(lag50, l50), append(lag99, l99)
		offered, achieved = append(offered, off), append(achieved, ach)
		if l99 > 2000 || ach < 0.99*scheduled {
			res.Valid = false
			res.Notes = append(res.Notes, fmt.Sprintf("INVALID 1x window %d: gen_lag_p99 %.0fus, achieved %.1f/s of %.1f/s scheduled", i+1, l99, ach, scheduled))
		}
	}
	res.set("loadgen.gen_lag_p50_us", "us", median(lag50))
	res.set("loadgen.gen_lag_p99_us", "us", median(lag99))
	res.set("loadgen.offered_rps", "1/s", median(offered))
	res.set("loadgen.achieved_rps", "1/s", median(achieved))
	res.set("loadgen.service_p50_us", "us", median(svc50))
}
