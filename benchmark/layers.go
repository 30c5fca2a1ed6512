package main

// perLayer is every metric a traced run reports, named after the package (or
// part of the harness) it measures. They carry no bound: they explain a move
// in an end-to-end metric, they do not gate one. README.md says, for each,
// which end-to-end metric it should move on which workload. A metric that
// does not exist in a workload's deployment (ann.* without -ann, the bandit
// arms without -explore, the resilience counters without -kv) reads 0 there.
var perLayer = []metricDef{
	// The harness itself. None of these should move with the program; a run
	// whose generator ran late is invalid, not slow.
	{Name: "loadgen.gen_lag_p50_us", Unit: "us", Better: lower},
	{Name: "loadgen.gen_lag_p99_us", Unit: "us", Better: lower},
	{Name: "loadgen.offered_rps", Unit: "1/s", Better: higher},
	{Name: "loadgen.achieved_rps", Unit: "1/s", Better: higher},
	{Name: "loadgen.service_p50_us", Unit: "us", Better: lower},
	{Name: "loadgen.recommend_p99_us", Unit: "us", Better: lower},
	{Name: "loadgen.action_p99_us", Unit: "us", Better: lower},
	{Name: "loadgen.p99_us_at_2x", Unit: "us", Better: lower},
	{Name: "loadgen.backlog_max_at_2x", Unit: "count", Better: lower},
	{Name: "loadgen.build_s", Unit: "s", Better: lower},

	// cmd/recserve's HTTP edge: client send→reply minus the body's latency_us.
	{Name: "edge.self_p50_us", Unit: "us", Better: lower},
	{Name: "edge.self_p99_us", Unit: "us", Better: lower},
	{Name: "edge.resp_bytes_p50", Unit: "count", Better: lower},

	// internal/recommend: serve side from bodies and the in-process replay,
	// ingest side from the in-process replay.
	{Name: "recommend.recommend_p50_us", Unit: "us", Better: lower},
	{Name: "recommend.recommend_p99_us", Unit: "us", Better: lower},
	{Name: "recommend.recommend_allocs_per_op", Unit: "count", Better: lower},
	{Name: "recommend.seeds_p50", Unit: "count", Better: higher},
	{Name: "recommend.candidates_p50", Unit: "count", Better: higher},
	{Name: "recommend.hot_merged_share", Unit: "ratio", Better: lower},
	{Name: "recommend.degraded_share", Unit: "ratio", Better: lower},
	{Name: "recommend.explored_share", Unit: "ratio", Better: higher},
	{Name: "recommend.replay_p50_us", Unit: "us", Better: lower},
	{Name: "recommend.stage_residual_us", Unit: "us", Better: lower},
	{Name: "recommend.ingest_p50_us", Unit: "us", Better: lower},
	{Name: "recommend.ingest_p99_us", Unit: "us", Better: lower},
	{Name: "recommend.ingest_allocs_per_op", Unit: "count", Better: lower},
	{Name: "recommend.ingest_seq_actions_per_s", Unit: "1/s", Better: higher},

	{Name: "history.watched_p50_us", Unit: "us", Better: lower},
	{Name: "history.append_p50_us", Unit: "us", Better: lower},

	{Name: "simtable.similar_ids_p50_us", Unit: "us", Better: lower},
	{Name: "simtable.pair_update_p50_us", Unit: "us", Better: lower},
	{Name: "simtable.pairs_per_action", Unit: "count", Better: lower},

	{Name: "core.score_p50_us", Unit: "us", Better: lower},
	{Name: "core.score_ns_per_candidate", Unit: "ns", Better: lower},
	{Name: "core.process_action_p50_us", Unit: "us", Better: lower},

	{Name: "ann.probe_p50_us", Unit: "us", Better: lower},
	{Name: "ann.probe_slots_p50", Unit: "count", Better: higher},

	{Name: "bandit.pulls_per_op", Unit: "count", Better: higher},
	{Name: "bandit.wins", Unit: "count", Better: higher},
	{Name: "bandit.arm_share_mf", Unit: "ratio", Better: higher},
	{Name: "bandit.arm_share_sim", Unit: "ratio", Better: higher},
	{Name: "bandit.arm_share_hot", Unit: "ratio", Better: higher},
	{Name: "bandit.arm_share_ann", Unit: "ratio", Better: higher},

	{Name: "demographic.hot_p50_us", Unit: "us", Better: lower},
	{Name: "demographic.hot_record_p50_us", Unit: "us", Better: lower},
	{Name: "demographic.group_of_p50_us", Unit: "us", Better: lower},

	{Name: "objcache.hit_rate", Unit: "ratio", Better: higher},
	{Name: "objcache.evictions_per_op", Unit: "count", Better: lower},
	{Name: "objcache.invalidations_per_op", Unit: "count", Better: lower},
	{Name: "objcache.hit_ns", Unit: "ns", Better: lower},
	{Name: "objcache.miss_ns", Unit: "ns", Better: lower},

	// internal/kvstore: the span store above the system's store, then each
	// decorator alone over the recorded key trace, then the live counters.
	{Name: "kvstore.ops_per_recommend", Unit: "count", Better: lower},
	{Name: "kvstore.ops_per_ingest", Unit: "count", Better: lower},
	{Name: "kvstore.keys_per_mget_p50", Unit: "count", Better: higher},
	{Name: "kvstore.time_share_recommend", Unit: "ratio", Better: lower},
	{Name: "kvstore.time_share_ingest", Unit: "ratio", Better: lower},
	{Name: "kvstore.hit_rate", Unit: "ratio", Better: higher},
	{Name: "kvstore.local_get_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.local_set_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.net_get_us", Unit: "us", Better: lower},
	{Name: "kvstore.net_mget_us", Unit: "us", Better: lower},
	{Name: "kvstore.resilient_self_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.shardgroup_get_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.shardgroup_set_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.sharded_self_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.replicated_set_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.retries", Unit: "count", Better: lower},
	{Name: "kvstore.exhausted", Unit: "count", Better: lower},
	{Name: "kvstore.breaker_trips", Unit: "count", Better: lower},
	{Name: "kvstore.redirects", Unit: "count", Better: lower},

	// internal/storm and internal/topology: the startup replay's counters and
	// throughput from the live server (ingest_actions_per_s: training actions
	// per second from process start to the first healthy answer), the same
	// job's throughput from the in-process run.
	{Name: "storm.emitted.spout", Unit: "count", Better: higher},
	{Name: "storm.executed.ComputeMF", Unit: "count", Better: higher},
	{Name: "storm.executed.MFStorage", Unit: "count", Better: higher},
	{Name: "storm.executed.UserHistory", Unit: "count", Better: higher},
	{Name: "storm.executed.GetItemPairs", Unit: "count", Better: higher},
	{Name: "storm.executed.ItemPairSim", Unit: "count", Better: higher},
	{Name: "storm.executed.ResultStorage", Unit: "count", Better: higher},
	{Name: "storm.executed.BanditReward", Unit: "count", Better: higher},
	{Name: "storm.executed.BanditState", Unit: "count", Better: higher},
	{Name: "storm.failed_total", Unit: "count", Better: lower},
	{Name: "topology.ingest_actions_per_s", Unit: "1/s", Better: higher},
	{Name: "topology.replay_actions_per_s", Unit: "1/s", Better: higher},
	{Name: "topology.sync_actions_per_s", Unit: "1/s", Better: higher},

	// internal/eval: held-out-day recall@10 (Eq. 13) scored over HTTP before
	// any write reaches the server. A run fails its output check below the
	// workload's floor; the value carries no bound because it is a few dozen
	// hits and moves by 10–30% between replays of one corpus.
	{Name: "eval.recall_at_10", Unit: "ratio", Better: higher},

	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
	{Name: "trace.spans", Unit: "count", Better: lower},
}
