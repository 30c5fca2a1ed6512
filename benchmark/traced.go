package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"
)

// tracedPasses is the traced run's own work once the timed phases — which, in
// a traced run, include pass (a), the HTTP pass — are over: the live server's
// counters, then, the server stopped and both cores free, pass (b), the
// in-process pass.
func tracedPasses(ctx context.Context, cfg *runConfig, res *runResult, dep *deployment, c *httpConn, corp *corpus, reqs []recRequest, before, after *serverStats) error {
	res.set("loadgen.build_s", "s", cfg.buildS)
	var served serverStats
	if err := getJSON(c, "/stats", &served); err != nil {
		return err
	}
	liveCounters(res, before, after, &served)
	c.close()
	dep.stop()
	return inProcessPass(ctx, cfg, res, corp, reqs)
}

// edgeLane is a reader connection that keeps what the traced run reads
// afterwards: each request's own send→reply time and a copy of its body. The
// bodies are decoded once the window is over — a connection thread runs ahead
// of the server, and JSON decoding on it would be charged to the next request.
type edgeLane struct {
	readerLane
	service []time.Duration
	bodies  [][]byte
}

func (l *edgeLane) issue() bool {
	sent := time.Now()
	if !l.readerLane.issue() {
		return false
	}
	l.service = append(l.service, time.Since(sent))
	l.bodies = append(l.bodies, append([]byte(nil), l.c.body...))
	return true
}

// httpPass is pass (a): one more 1× window — the same connections at the same
// rates, so the server is in the state the end-to-end latencies saw; a closed
// loop would keep its threads and caches hot and answer in half the time —
// with every /recommend body kept and decoded afterwards. The span http.recommend is the client's
// send→reply; its child recommend.Recommend is the latency_us the server
// reports for its own call, so the edge's self time — net/http, routing, JSON
// encoding, waking a parked server, the loopback socket and this client — is
// the difference.
func httpPass(res *runResult, dur time.Duration, lanes []laneRun) error {
	var edges []*edgeLane
	for i, lr := range lanes {
		if r, ok := lr.l.(*readerLane); ok {
			e := &edgeLane{readerLane: *r}
			e.clickEvery = 0 // this window's bodies are kept for the trace, not turned into clicks
			edges = append(edges, e)
			lanes[i].l = e
		}
	}
	w := runWindow(wallClock{}, dur, lanes)
	res.phaseOps("traced.http", []windowResult{w})
	var self, service, sizes, lat, seeds, cands []float64
	var videos, hotMerged, degraded, explored int
	for _, e := range edges {
		for i, raw := range e.bodies {
			var b recBody
			if err := json.Unmarshal(raw, &b); err != nil {
				return fmt.Errorf("traced HTTP pass: undecodable body: %w", err)
			}
			service = append(service, us(e.service[i]))
			self = append(self, us(e.service[i])-float64(b.LatencyUS))
			sizes = append(sizes, float64(len(raw)))
			lat = append(lat, float64(b.LatencyUS))
			seeds = append(seeds, float64(b.Seeds))
			cands = append(cands, float64(b.Candidates))
			videos += len(b.Videos)
			hotMerged += b.HotMerged
			if b.Degraded {
				degraded++
			}
			if b.Explored {
				explored++
			}
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("traced HTTP pass: no request succeeded")
	}
	slices.Sort(self)
	slices.Sort(lat)
	n := float64(len(lat))
	res.set("edge.self_p50_us", "us", percentile(self, 0.50))
	res.set("edge.self_p99_us", "us", percentile(self, 0.99))
	res.set("edge.resp_bytes_p50", "count", median(sizes))
	res.set("recommend.recommend_p50_us", "us", percentile(lat, 0.50))
	res.set("recommend.recommend_p99_us", "us", percentile(lat, 0.99))
	res.set("recommend.seeds_p50", "count", median(seeds))
	res.set("recommend.candidates_p50", "count", median(cands))
	res.set("recommend.hot_merged_share", "ratio", float64(hotMerged)/float64(max(videos, 1)))
	res.set("recommend.degraded_share", "ratio", float64(degraded)/n)
	res.set("recommend.explored_share", "ratio", float64(explored)/n)
	res.Notes = append(res.Notes, fmt.Sprintf("traced HTTP pass: edge.self_p50 %.1fus + recommend.recommend_p50 %.1fus = %.1fus against its own service p50 %.1fus",
		percentile(self, 0.50), percentile(lat, 0.50), percentile(self, 0.50)+percentile(lat, 0.50), median(service)))
	return nil
}

// liveCounters reports what the live server counted: the startup replay's
// storm counters, the bandit's arms, the resilience and sharding counters.
func liveCounters(res *runResult, before, after, served *serverStats) {
	res.set("storm.emitted.spout", "count", float64(before.ReplayTopology["spout"].Emitted))
	var failed uint64
	for _, m := range before.ReplayTopology {
		failed += m.Failed + m.FailedTrees
	}
	res.set("storm.failed_total", "count", float64(failed))
	for _, bolt := range []string{"ComputeMF", "MFStorage", "UserHistory", "GetItemPairs", "ItemPairSim", "ResultStorage", "BanditReward", "BanditState"} {
		res.set("storm.executed."+bolt, "count", float64(before.ReplayTopology[bolt].Executed))
	}

	var pulls uint64
	var wins float64
	for _, arm := range served.Bandit {
		pulls += arm.Pulls
		wins += arm.Wins
	}
	res.set("bandit.pulls_per_op", "count", float64(pulls)/float64(max(served.ServingLatency.Count, 1)))
	res.set("bandit.wins", "count", wins)
	for _, arm := range []string{"mf", "sim", "hot", "ann"} {
		res.set("bandit.arm_share_"+arm, "ratio", float64(served.Bandit[arm].Pulls)/float64(max(pulls, 1)))
	}

	var retries, exhausted, trips, redirects uint64
	if after.Resilience != nil {
		for _, b := range after.Resilience.Backends {
			retries += b.Retries
			exhausted += b.Exhausted
			trips += b.BreakerTrips
		}
	}
	if after.Sharding != nil {
		redirects = after.Sharding.Redirects
	}
	res.set("kvstore.retries", "count", float64(retries))
	res.set("kvstore.exhausted", "count", float64(exhausted))
	res.set("kvstore.breaker_trips", "count", float64(trips))
	res.set("kvstore.redirects", "count", float64(redirects))
}
