package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"vidrec/internal/feedback"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {0.90, 90}, {0.001, 1}, {0.999, 100}} {
		if got := percentile(v, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		beyond int
	}{
		{4000, 0.99, 40},
		{1000, 0.99, 10}, // exactly ten beyond p99 is enough
		{999, 0.98, 19},  // nine beyond p99: fall back
		{600, 0.98, 12},
		{400, 0.95, 20},
		{150, 0.90, 15},
		{50, 0, 0}, // nothing supportable
	} {
		q := tailQuantile(tc.n, 0.99, 0.98, 0.95, 0.90)
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
			continue
		}
		if q > 0 && beyond(tc.n, q) != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, q, beyond(tc.n, q), tc.beyond)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := relSpread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.2", got)
	}
	if got := relSpread([]float64{5}); got != 0 {
		t.Errorf("relSpread of one value = %v", got)
	}
	// Four values or more: the quartiles, so one stalled window does not set it.
	if got := relSpread([]float64{100, 98, 102, 101, 99, 300, 100}); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("relSpread over seven values = %v, want 0.03", got)
	}
}

func TestWindowsReportTheirBetterQuartile(t *testing.T) {
	res := &runResult{Metrics: map[string]metricValue{}}
	// Seven windows, one of them stalled: quartiles at ranks 2 and 6.
	lat := []float64{210, 200, 205, 900, 220, 215, 202}
	res.setWindows("p50", "us", lower, lat)
	if got := res.Metrics["p50"].Value; got != 202 {
		t.Errorf("lower-is-better metric = %v, want the first quartile 202", got)
	}
	rate := []float64{1000, 1100, 1050, 300, 1080, 1020, 1090}
	res.setWindows("rps", "1/s", higher, rate)
	if got := res.Metrics["rps"].Value; got != 1090 {
		t.Errorf("higher-is-better metric = %v, want the third quartile 1090", got)
	}
	if _, ok := res.Metrics["rps.spread"]; !ok {
		t.Error("no in-run spread recorded beside the metric")
	}
	res.setWindows("one", "us", lower, []float64{7})
	if got := res.Metrics["one"].Value; got != 7 {
		t.Errorf("single window = %v, want 7", got)
	}
}

func TestSLOShareLeavesOutTheWorstFifthOfTheWindows(t *testing.T) {
	res := &runResult{Metrics: map[string]metricValue{}}
	ws := windowSet{
		{sent: 100, sloShare: 1}, {sent: 100, sloShare: 0.2}, {sent: 100, sloShare: 0.98},
		{sent: 100, sloShare: 1}, {sent: 100, sloShare: 0.9},
	}
	res.setSLOShare("slo", ws) // five windows: the one at 0.2 is left out
	if got, want := res.Metrics["slo"].Value, (1+0.98+1+0.9)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("slo share = %v, want %v", got, want)
	}
	res.setSLOShare("few", ws[:4]) // under five windows none is left out
	if got, want := res.Metrics["few"].Value, (1+0.2+0.98+1)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("slo share over four windows = %v, want %v", got, want)
	}
}

// fakeClock advances only when slept on or when a lane "serves".
type fakeClock struct {
	t      time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.t = c.t.Add(d)
}

// scriptedLane takes service[i] of clock time for its i-th operation.
type scriptedLane struct {
	clk     *fakeClock
	service []time.Duration
	n       int
}

func (l *scriptedLane) issue() bool {
	l.clk.t = l.clk.t.Add(l.service[l.n%len(l.service)])
	l.n++
	return true
}
func (l *scriptedLane) settle() {}

func TestPacedKeepsAbsoluteSchedule(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.Now()
	// Ten slots, 10 ms apart. Every operation takes 1 ms except the fourth,
	// which stalls for 35 ms.
	service := []time.Duration{ms, ms, ms, 35 * ms, ms, ms, ms, ms, ms, ms}
	l := &scriptedLane{clk: clk, service: service}
	samples, backlog := paced(clk, start, 0, 10*ms, 100*ms, l, nil)

	if len(samples) != 10 || l.n != 10 {
		t.Fatalf("%d samples, %d operations issued: a late slot was skipped", len(samples), l.n)
	}
	for i, s := range samples {
		if s.due != time.Duration(i)*10*ms {
			t.Errorf("slot %d due at %v: the schedule drifted", i, s.due)
		}
	}
	// Slot 3 is sent on time at 30 ms and answered at 65 ms. Slots 4, 5 and 6
	// were due at 40, 50, 60 ms: each is sent the moment the connection is
	// free, and its latency counts from when it was due.
	want := []struct{ sent, done time.Duration }{
		3: {30 * ms, 65 * ms}, 4: {65 * ms, 66 * ms}, 5: {66 * ms, 67 * ms}, 6: {67 * ms, 68 * ms}, 7: {70 * ms, 71 * ms},
	}
	for i := 3; i <= 7; i++ {
		if samples[i].sent != want[i].sent || samples[i].done != want[i].done {
			t.Errorf("slot %d sent %v done %v, want %v / %v", i, samples[i].sent, samples[i].done, want[i].sent, want[i].done)
		}
	}
	if lat := samples[4].done - samples[4].due; lat != 26*ms {
		t.Errorf("slot 4 latency from due = %v, want 26ms (the stall is charged to the request it delayed)", lat)
	}
	// The lateness of slots 4–6 is the previous reply's, not the generator's.
	for i := 4; i <= 6; i++ {
		if own := samples[i].sent - samples[i].free; own != 0 {
			t.Errorf("slot %d generator lag %v, want 0", i, own)
		}
	}
	if backlog != 2 {
		t.Errorf("backlogMax = %d, want 2 (slot 4 sent 25 ms late: two more slots already due)", backlog)
	}
	// On time again from slot 7: the pacer slept exactly to the next due time.
	if last := clk.sleeps[len(clk.sleeps)-1]; last != 9*ms {
		t.Errorf("last sleep %v, want 9ms", last)
	}
}

func TestPacedOffsetStaggersLanes(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := &scriptedLane{clk: clk, service: []time.Duration{ms}}
	samples, _ := paced(clk, clk.Now(), 5*ms, 10*ms, 30*ms, l, nil)
	if len(samples) != 3 || samples[0].due != 5*ms || samples[2].due != 25*ms {
		t.Errorf("offset schedule = %+v", samples)
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := &scriptedLane{clk: clk, service: []time.Duration{4 * ms}}
	samples := closedLoop(clk, clk.Now(), 20*ms, l, nil)
	if len(samples) != 5 {
		t.Fatalf("%d operations in 20 ms at 4 ms each, want 5", len(samples))
	}
	for i, s := range samples {
		if s.sent != time.Duration(i)*4*ms || s.due != s.sent {
			t.Errorf("op %d sent %v due %v", i, s.sent, s.due)
		}
	}
	if len(clk.sleeps) != 0 {
		t.Errorf("closed loop slept %v", clk.sleeps)
	}
}

func TestSummarizeCountsFailuresAgainstTheSLO(t *testing.T) {
	const ms = time.Millisecond
	var samples []sample
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * 10 * ms
		s := sample{due: due, free: due, sent: due, done: due + ms, ok: true}
		switch {
		case i < 2:
			s.ok = false // failed
		case i < 5:
			s.done = due + 6*ms // answered, but late
		}
		samples = append(samples, s)
	}
	st := summarize(samples, time.Second)
	if st.sent != 100 || st.ok != 98 {
		t.Errorf("sent/ok = %d/%d", st.sent, st.ok)
	}
	if want := 0.95; math.Abs(st.sloShare-want) > 1e-12 {
		t.Errorf("sloShare = %v, want %v: failed and late requests both miss", st.sloShare, want)
	}
	if st.achieved != 98 {
		t.Errorf("achieved = %v/s, want 98", st.achieved)
	}
}

func TestSpanParentsAndSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "recommend.Recommend", Depth: 0, Start: 0, End: 100},
		{ID: 2, Req: 1, Name: "store.get", Depth: 1, Start: 10, End: 30},
		{ID: 3, Req: 1, Name: "store.mget", Depth: 1, Start: 40, End: 90},
		{ID: 4, Req: 1, Name: "net.mget", Depth: 2, Start: 45, End: 85},
		// A fan-out: two replica reads that overlap in time.
		{ID: 5, Req: 1, Name: "replica.mget", Depth: 3, Start: 50, End: 70},
		{ID: 6, Req: 1, Name: "replica.mget", Depth: 3, Start: 60, End: 80},
		// The next request; must not be adopted by the first.
		{ID: 7, Req: 2, Name: "recommend.Recommend", Depth: 0, Start: 100, End: 150},
		{ID: 8, Req: 2, Name: "store.get", Depth: 1, Start: 110, End: 120},
	}
	linkSpans(spans)
	wantParent := map[int]int{1: 0, 2: 1, 3: 1, 4: 3, 5: 4, 6: 4, 7: 0, 8: 7}
	for _, s := range spans {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d (%s) parent = %d, want %d", s.ID, s.Name, s.Parent, wantParent[s.ID])
		}
	}
	self := selfTimes(spans)
	wantSelf := map[int]int64{
		1: 100 - 20 - 50, // minus its two store calls
		2: 20,
		3: 50 - 40,
		4: 40 - 30, // the overlapping children cover [50,80] once
		5: 20, 6: 20,
		7: 40, 8: 10,
	}
	for id, want := range wantSelf {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracesArePureFunctionsOfTheSeed(t *testing.T) {
	spec := dataSpec{Users: 60, Videos: 40, TrainDays: 2, HeldOutDays: 1, EventsPerDay: 150}
	a, err := generateCorpus(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateCorpus(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.train, b.train) || !reflect.DeepEqual(a.heldOut, b.heldOut) {
		t.Fatal("two corpora from one seed differ")
	}
	if len(a.testDay) == 0 || len(a.testDay) > len(a.heldOut) {
		t.Fatalf("test day has %d of %d held-out actions", len(a.testDay), len(a.heldOut))
	}
	for i := 1; i < len(a.heldOut); i++ {
		if a.heldOut[i].Timestamp.Before(a.heldOut[i-1].Timestamp) {
			t.Fatalf("held-out action %d goes back in time", i)
		}
	}
	r1, r2 := buildRequests(a.train, 3, 500), buildRequests(b.train, 3, 500)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two request traces from one seed differ")
	}
	if reflect.DeepEqual(r1, buildRequests(a.train, 4, 500)) {
		t.Fatal("another seed drew the same request trace")
	}
	cold, withVideo := 0, 0
	for _, r := range r1 {
		if !r.known {
			cold++
			if a.watched[r.user] != nil {
				t.Errorf("never-seen user %s has training history", r.user)
			}
		}
		if r.video != "" {
			withVideo++
		}
		if want := string(renderGET(recommendPath(r.user, r.video, slateSize))); string(r.raw) != want {
			t.Fatalf("pre-rendered request %q, want %q", r.raw, want)
		}
	}
	if cold < 40 || cold > 120 || withVideo < 100 || withVideo > 200 {
		t.Errorf("%d cold and %d video= of 500 requests: far from the 15%% / 30%% mix", cold, withVideo)
	}
}

func TestActionLineIsWhatTheServerParses(t *testing.T) {
	a := feedback.Action{
		UserID: "u00001", VideoID: "v00002", Type: feedback.PlayTime,
		ViewTime: 90 * time.Second, VideoLength: 10 * time.Minute, Timestamp: time.UnixMilli(1457308800123),
	}
	got := string(actionLine(a.Timestamp.UnixMilli(), a.UserID, a.VideoID, a.Type, a.ViewTime, a.VideoLength))
	if want := "1457308800123\tu00001\tv00002\t" + a.Type.String() + "\t90000\t600000\n"; got != want {
		t.Errorf("actionLine = %q, want %q", got, want)
	}
	req := buildActionRequests([]feedback.Action{a})[0]
	if !strings.HasPrefix(string(req.raw), "POST /action HTTP/1.1\r\n") || !strings.HasSuffix(string(req.raw), "\r\n\r\n"+got) {
		t.Errorf("rendered POST = %q", req.raw)
	}
	if !strings.Contains(string(req.raw), "Content-Length: "+itoa(len(got))+"\r\n") {
		t.Errorf("rendered POST has the wrong Content-Length: %q", req.raw)
	}
}

func itoa(n int) string { b, _ := json.Marshal(n); return string(b) }

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := []byte("4242 (rec serve) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 123456 1234567 2345 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(731+269) / clockTick; got != want {
		t.Errorf("cpu seconds = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) did not fail", bad)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat([]byte("1500000000 40167 77\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.5 {
		t.Errorf("run time = %v s, want 1.5", got)
	}
	for _, bad := range []string{"", "12 34", "x 1 2"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("parseSchedstat(%q) did not fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\trecserve\nVmPeak:\t  900000 kB\nVmHWM:\t   81920 kB\nVmRSS:\t   70000 kB\n")
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 80 {
		t.Errorf("VmHWM = %v MB, want 80", got)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status without VmHWM did not fail")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("a VmHWM in another unit did not fail")
	}
}

func TestReadResponseFramings(t *testing.T) {
	parse := func(wire string) (*httpConn, int, error) {
		c := newHTTPConn("unused")
		c.br = bufio.NewReader(strings.NewReader(wire))
		status, err := c.readResponse()
		return c, status, err
	}
	c, status, err := parse("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 404")
	if err != nil || status != 200 || string(c.body) != "hello" {
		t.Errorf("content-length response: %d %q %v", status, c.body, err)
	}
	c, status, err = parse("HTTP/1.1 500 Internal Server Error\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n4;ext=1\r\ndefg\r\n0\r\n\r\n")
	if err != nil || status != 500 || string(c.body) != "abcdefg" {
		t.Errorf("chunked response: %d %q %v", status, c.body, err)
	}
	for _, bad := range []string{
		"garbage\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n",                                     // no framing
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",           // truncated body
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",               // negative length
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", // bad chunk size
	} {
		if _, _, err := parse(bad); err == nil {
			t.Errorf("malformed response %q parsed", bad)
		}
	}
}

func TestReplayPlanFollowsTheTrafficMix(t *testing.T) {
	reqs := make([]recRequest, 120)
	acts := make([]feedback.Action, 30)
	plan := replayPlan(workload{ReadRate: 1200, WriteRate: 300}, reqs, acts)
	if len(plan) != 150 {
		t.Fatalf("plan has %d steps, want 150", len(plan))
	}
	// One action after every fourth request.
	for i, step := range plan {
		if isAct := step.act != nil; isAct != (i%5 == 4) {
			t.Fatalf("step %d: action=%v", i, isAct)
		}
	}
	tail := replayPlan(workload{WriteTail: true, ReadRate: 1000, WriteRate: 600}, reqs, acts)
	for i, step := range tail {
		if isAct := step.act != nil; isAct != (i >= len(reqs)) {
			t.Fatalf("write-tail step %d: action=%v", i, isAct)
		}
	}
}

func TestProbeOpsSynthesizesMissingKinds(t *testing.T) {
	recorded := []keyOp{
		{op: "update", keys: []string{"a"}, bytes: 100},
		{op: "update", keys: []string{"b"}, bytes: 10},
		{op: "update", keys: []string{"a"}, bytes: 120},
		{op: "get", keys: []string{"c"}},
		{op: "update", keys: []string{"d"}}, {op: "update", keys: []string{"e"}},
	}
	ops, vals := probeOps(recorded)
	if len(vals["a"]) != 120 || len(vals["c"]) != 64 {
		t.Errorf("value sizes: a=%d c=%d", len(vals["a"]), len(vals["c"]))
	}
	kinds := map[string]int{}
	for _, op := range ops {
		kinds[op.op]++
	}
	if kinds["mget"] != 1 || kinds["get"] != 1 || kinds["set"] != 0 || kinds["update"] != 5 {
		t.Errorf("op kinds after synthesis: %v", kinds)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "recommend_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	rps := metricDef{Name: "recommend_rps", Unit: "1/s", Better: higher, Bound: 0.10}
	runs := func(spread float64, v ...float64) *metricRuns { return &metricRuns{values: v, inRunMax: spread} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b *metricRuns
		want string
	}{
		{"inside the bound", lat, runs(0.02, 100), runs(0.02, 108), verdictOK},
		{"slower past the bound", lat, runs(0.02, 100), runs(0.02, 112), verdictRegressed},
		{"faster is never a regression", lat, runs(0.02, 100), runs(0.02, 50), verdictOK},
		{"higher-is-better drops", rps, runs(0.02, 1000), runs(0.02, 880), verdictRegressed},
		{"higher-is-better rises", rps, runs(0.02, 1000), runs(0.02, 1500), verdictOK},
		{"noise wider than the bound", lat, runs(0.30, 100), runs(0.02, 150), verdictUnresolved},
		{"quartile spread of many runs", lat, runs(0, 100, 101, 99, 100, 102, 98), runs(0, 100, 140, 60, 100, 150, 50), verdictUnresolved},
	} {
		if got, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTheHarness keeps ../BENCHMARK.json — which the
// acceptance pipeline reads — and the tables the harness prints from in step.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n harness %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness's table")
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
