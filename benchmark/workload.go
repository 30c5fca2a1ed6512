package main

// workload is one traffic mix against one deployment of the programs under
// test. Everything that distinguishes the three is in this table; the run
// itself (run.go) is the same sequence of phases for all of them, which is
// what lets every workload report every end-to-end metric.
type workload struct {
	Name string `json:"name"`
	// Why is the one sentence BENCHMARK.json records for the workload (at
	// most 200 characters there); README.md has the long form.
	Why  string   `json:"why"`
	Data dataSpec `json:"data"`
	// ServerFlags are passed to recserve after -addr and -data.
	ServerFlags []string `json:"server_flags"`
	// Remote puts the store in a second process: kvserver -shard-groups 2,
	// reached through recserve -kv.
	Remote bool `json:"remote"`
	// ReadRate is the open-loop /recommend rate of each reader connection
	// and WriteRate the open-loop /action rate of the writer connection, in
	// requests per second. They sit at roughly a quarter to a third of what
	// the same connections sustain closed-loop on the 2-core reference box:
	// above about half, open-loop tails on two shared cores stop repeating.
	ReadRate  float64 `json:"read_rate"`
	WriteRate float64 `json:"write_rate"`
	// WriteTail runs the writer after the read windows instead of beside
	// them: both connections read, then one writes alone. Without it the
	// two connections are one reader and one writer, concurrently.
	WriteTail bool `json:"write_tail"`
	// ClickEvery turns one in that many reader responses into a click on
	// the slate's top video, sent by the writer (0: never).
	ClickEvery int `json:"click_every"`
	// RecallFloor is the recall@10 below which the run fails its output
	// check: about half the first baseline's value (0.0034, 0.0006, 0.0035
	// in table order), far under anything a healthy replay has shown.
	RecallFloor float64 `json:"recall_floor"`
}

const defaultSeed = 1

// dataSeed generates every workload's corpus; the run's seed draws the request
// trace from it (who asks, in what order, which never-seen users, which
// current videos) but not the corpus itself. Quality is why: recall@10 on this
// generator is a few dozen hits over the whole test day, and between two
// corpora it moves by ±35% (0.0021 … 0.0042 over seeds 1–6 at the serve-warm
// size) while between two replays of one corpus it moves by a few percent. A
// bound of 10% on recall means something only if the corpus stands still.
const dataSeed = 1

var workloads = []workload{
	{
		Name:     "serve-warm",
		Why:      "embedded store, working set inside objcache, read-only request windows: store and cache idle, so the HTTP edge and serve stages are the cost; edge or pipeline work shows here, store work must not",
		Data:     dataSpec{Users: 1300, Videos: 600, TrainDays: 5, HeldOutDays: 2, EventsPerDay: 2000},
		ReadRate: 1000, WriteRate: 600, WriteTail: true, RecallFloor: 0.002,
	},
	{
		Name:        "serve-churn",
		Why:         "-quantized -ann -explore, key set twice the objcache, writes beside reads, clicks fed back: eviction and refill, Ingest and the q8/ANN/bandit branches do the work; a read gain that costs writes shows",
		Data:        dataSpec{Users: 6000, Videos: 2500, TrainDays: 5, HeldOutDays: 1, EventsPerDay: 6000},
		ServerFlags: []string{"-quantized", "-ann", "-explore"},
		ReadRate:    1000, WriteRate: 250, ClickEvery: 8, RecallFloor: 0.0003,
	},
	{
		Name:     "serve-remote",
		Why:      "kvserver -shard-groups 2 behind recserve -kv, writes beside reads: every post-cache store op crosses Resilient, the net client, TCP and the shard router; store work shows only here, edge work does not",
		Data:     dataSpec{Users: 800, Videos: 400, TrainDays: 4, HeldOutDays: 2, EventsPerDay: 800},
		Remote:   true,
		ReadRate: 800, WriteRate: 200, RecallFloor: 0.002,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric with its unit, direction and — for end-to-end
// metrics — the share of the parent's median by which it may worsen before a
// change is a regression. BENCHMARK.json mirrors these tables; a unit test
// keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"recommend_p50_us", "us", lower, 0.25},
	{"recommend_slo_share", "ratio", higher, 0.10},
	{"recommend_rps", "1/s", higher, 0.25},
	{"action_p50_us", "us", lower, 0.25},
	{"action_slo_share", "ratio", higher, 0.15},
	{"action_rps", "1/s", higher, 0.25},
	{"server_cpu_us_per_op", "us", lower, 0.25},
	{"rss_mb", "MB", lower, 0.15},
}
