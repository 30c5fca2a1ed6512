package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/dataset"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
	"vidrec/internal/simtable"
)

func testServer(t *testing.T) (*httptest.Server, *recommend.System) {
	t.Helper()
	sys, kv := testSystem(t, recommend.DefaultOptions())
	srv := httptest.NewServer(newMux(sys, &storeStack{kv: kv, local: kv}, nil))
	t.Cleanup(srv.Close)
	return srv, sys
}

// testSystem builds a small embedded-store system: three videos, three
// users, and a play of "a" and "b" by each.
func testSystem(tb testing.TB, opts recommend.Options) (*recommend.System, *kvstore.Local) {
	tb.Helper()
	kv := kvstore.NewLocal(16)
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := recommend.NewSystem(kv, params, simtable.DefaultConfig(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		sys.Catalog.Put(context.Background(), catalog.Video{ID: id, Type: "movie", Length: 30 * time.Minute})
	}
	base := time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		for _, v := range []string{"a", "b"} {
			sys.Ingest(context.Background(), feedback.Action{
				UserID: u, VideoID: v, Type: feedback.PlayTime,
				ViewTime: 30 * time.Minute, VideoLength: 30 * time.Minute,
				Timestamp: base.Add(time.Duration(min) * time.Minute),
			})
			min++
		}
	}
	return sys, kv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp := getJSON(t, srv.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var body struct {
		Videos []struct {
			ID    string
			Score float64
		}
		Seeds     int
		LatencyUS int64 `json:"latency_us"`
	}
	// A visitor with no history, watching "a": the co-watched "b" should
	// surface.
	resp := getJSON(t, srv.URL+"/recommend?user=visitor&video=a&n=2", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(body.Videos) == 0 {
		t.Fatal("no videos returned")
	}
	for _, v := range body.Videos {
		if v.ID == "a" {
			t.Error("current video recommended")
		}
	}
}

// TestRecommendHugeN: an n no slate can fill is served like any other large
// n — the same body as n=100000 — rather than sized by it.
func TestRecommendHugeN(t *testing.T) {
	srv, _ := testServer(t)
	for _, query := range []string{"user=visitor", "user=visitor&video=a"} {
		body := func(n string) map[string]any {
			var out map[string]any
			if resp := getJSON(t, srv.URL+"/recommend?"+query+"&n="+n, &out); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s&n=%s: status = %d", query, n, resp.StatusCode)
			}
			delete(out, "latency_us")
			return out
		}
		want := body("100000")
		if videos, _ := want["videos"].([]any); len(videos) == 0 {
			t.Fatalf("%s&n=100000 served no videos: %v", query, want)
		}
		for _, n := range []string{"17179869184", strconv.Itoa(1 << 40), strconv.FormatInt(1<<63-1, 10)} {
			if got := body(n); !reflect.DeepEqual(got, want) {
				t.Errorf("%s&n=%s serves %v, n=100000 serves %v", query, n, got, want)
			}
		}
	}
}

func TestRecommendRequiresUser(t *testing.T) {
	srv, _ := testServer(t)
	resp := getJSON(t, srv.URL+"/recommend", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestSimilarEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var entries []struct {
		ID    string
		Score float64
	}
	resp := getJSON(t, srv.URL+"/similar?video=a&n=5", &entries)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(entries) == 0 || entries[0].ID != "b" {
		t.Errorf("similar(a) = %+v, want b first", entries)
	}
	if resp := getJSON(t, srv.URL+"/similar", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing video param: status = %d, want 400", resp.StatusCode)
	}
}

func TestActionIngestEndpoint(t *testing.T) {
	srv, sys := testServer(t)
	line := "1457308800000\tu9\tc\tclick\t0\t0\n"
	resp, err := http.Post(srv.URL+"/action", "text/tab-separated-values", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body struct {
		Ingested int
	}
	json.NewDecoder(resp.Body).Decode(&body)
	if body.Ingested != 1 {
		t.Errorf("ingested = %d, want 1", body.Ingested)
	}
	recent, _ := sys.History.RecentVideos(context.Background(), "u9", 5)
	if len(recent) != 1 || recent[0] != "c" {
		t.Errorf("history after POST = %v", recent)
	}
	// Malformed body is a 400.
	resp2, err := http.Post(srv.URL+"/action", "text/plain", strings.NewReader("garbage\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", resp2.StatusCode)
	}
}

// TestActionBodyParsing pins the POST /action edge: the body is bounded, a
// multi-line body is ingested whole or not at all, and a malformed line is
// refused in the words dataset.ReadActions uses for a file.
func TestActionBodyParsing(t *testing.T) {
	srv, sys := testServer(t)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/action", "text/tab-separated-values", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, strings.TrimSpace(string(text))
	}
	history := func(user string) []string {
		t.Helper()
		recent, err := sys.History.RecentVideos(context.Background(), user, 5)
		if err != nil {
			t.Fatal(err)
		}
		return recent
	}
	good := "1457308800000\tu7\ta\tclick\t0\t0\n"

	if status, text := post("# two actions\r\n" + good + "\n1457308801000\tu7\tb\tclick\t0\t0"); status != http.StatusOK || text != `{"ingested":2}` {
		t.Errorf("two-line body: %d %q, want 200 {\"ingested\":2}", status, text)
	}
	if got := history("u7"); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("history after two-line body = %v, want [b a]", got)
	}

	malformed := strings.ReplaceAll(good, "u7", "u8") + "\n1457308801000\tu8\tb\n"
	_, want := dataset.ReadActions(strings.NewReader(malformed))
	if want == nil || !strings.Contains(want.Error(), "line 3: 3 fields, want 6") {
		t.Fatalf("ReadActions on the malformed body = %v, want a line 3 field-count error", want)
	}
	if status, text := post(malformed); status != http.StatusBadRequest || text != want.Error() {
		t.Errorf("malformed line: %d %q, want 400 %q", status, text, want)
	}
	if got := history("u8"); len(got) != 0 {
		t.Errorf("malformed body ingested its first line: history = %v", got)
	}

	oversized := strings.ReplaceAll(good, "u7", "u9") + "#" + strings.Repeat("x", maxActionBody)
	if status, _ := post(oversized); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", status)
	}
	if got := history("u9"); len(got) != 0 {
		t.Errorf("oversized body was ingested: history = %v", got)
	}
	if status, _ := post(good + "#" + strings.Repeat("x", maxActionBody-len(good)-1)); status != http.StatusOK {
		t.Errorf("body of exactly the limit: status = %d, want 200", status)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	getJSON(t, srv.URL+"/recommend?user=u1&n=3", nil) // generate a latency sample
	var stats map[string]any
	resp := getJSON(t, srv.URL+"/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if _, ok := stats["kv"]; !ok {
		t.Error("stats missing kv section for a local store")
	}
	lat, ok := stats["serving_latency"].(map[string]any)
	if !ok || lat["count"].(float64) < 1 {
		t.Errorf("stats missing latency samples: %v", stats["serving_latency"])
	}
}

// TestRecommendDegradedField drives the serving stack into the demographic
// fallback over HTTP: a total blackout of the model/simtable namespace must
// still produce 200s, with the degraded marker set in the JSON body.
func TestRecommendDegradedField(t *testing.T) {
	faulty := kvstore.NewFaulty(kvstore.NewLocal(16), 7)
	params := core.DefaultParams()
	params.Factors = 8
	opts := recommend.DefaultOptions()
	opts.CacheCapacity = -1 // the blackout must reach every model read
	sys, err := recommend.NewSystem(faulty, params, simtable.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		sys.Catalog.Put(context.Background(), catalog.Video{ID: id, Type: "movie", Length: 30 * time.Minute})
	}
	base := time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)
	for i, v := range []string{"a", "b", "c"} {
		sys.Ingest(context.Background(), feedback.Action{
			UserID: "u1", VideoID: v, Type: feedback.PlayTime,
			ViewTime: 30 * time.Minute, VideoLength: 30 * time.Minute,
			Timestamp: base.Add(time.Duration(i) * time.Minute),
		})
	}
	srv := httptest.NewServer(newMux(sys, &storeStack{kv: faulty}, nil))
	t.Cleanup(srv.Close)

	var body struct {
		Videos   []struct{ ID string }
		Degraded bool
	}
	if resp := getJSON(t, srv.URL+"/recommend?user=u2&n=2", &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status = %d", resp.StatusCode)
	}
	if body.Degraded {
		t.Error("healthy response marked degraded")
	}

	faulty.SetSchedule([]kvstore.FaultPhase{{FailRate: 1, KeyPrefix: "sys/"}})
	body.Degraded = false
	body.Videos = nil
	if resp := getJSON(t, srv.URL+"/recommend?user=u2&n=2", &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("blackout status = %d, want 200 via demographic fallback", resp.StatusCode)
	}
	if !body.Degraded {
		t.Error("blackout response not marked degraded")
	}
	if len(body.Videos) == 0 {
		t.Error("degraded response served no videos")
	}
}

// TestStatsResilienceSection spins up two real kvservers, points the full
// replicated client stack at them, and checks /stats reports the per-backend
// breaker states and the replication counters.
func TestStatsResilienceSection(t *testing.T) {
	ctx := context.Background()
	var addrs []string
	for i := 0; i < 2; i++ {
		ksrv, err := kvstore.NewServer(ctx, kvstore.NewLocal(4), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ksrv.Close() })
		addrs = append(addrs, ksrv.Addr())
	}
	st, closeStore, err := buildStore(ctx, strings.Join(addrs, ","), kvstore.DefaultResilienceConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeStore)
	if st.replicated == nil || len(st.resilients) != 2 {
		t.Fatalf("buildStore composed %d resilient backends, replicated=%v", len(st.resilients), st.replicated != nil)
	}
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := recommend.NewSystem(st.kv, params, simtable.DefaultConfig(), recommend.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(sys, st, nil))
	t.Cleanup(srv.Close)

	var stats map[string]any
	if resp := getJSON(t, srv.URL+"/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	res, ok := stats["resilience"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing resilience section: %v", stats)
	}
	backends, ok := res["backends"].([]any)
	if !ok || len(backends) != 2 {
		t.Fatalf("resilience backends = %v, want 2 entries", res["backends"])
	}
	first, ok := backends[0].(map[string]any)
	if !ok || first["breaker_state"] != "closed" {
		t.Errorf("backend 0 breaker_state = %v, want closed", first["breaker_state"])
	}
	if _, ok := res["read_fallbacks"]; !ok {
		t.Error("resilience section missing read_fallbacks for a replicated store")
	}
}

func TestQueryIntDefaults(t *testing.T) {
	if got := queryInt("abc", 10); got != 10 {
		t.Errorf("non-numeric = %d, want default", got)
	}
	if got := queryInt("-3", 10); got != 10 {
		t.Errorf("negative = %d, want default", got)
	}
	if got := queryInt("0", 10); got != 10 {
		t.Errorf("zero = %d, want default", got)
	}
	if got := queryInt("7", 10); got != 7 {
		t.Errorf("valid = %d, want 7", got)
	}
	if got := queryInt(" 7\t", 10); got != 7 {
		t.Errorf("padded = %d, want 7", got)
	}
	if got := queryInt("", 5); got != 5 {
		t.Errorf("absent = %d, want default", got)
	}
}

// TestExploreEndpoints serves an exploring system and checks the HTTP
// surface: /recommend carries the explored flag and per-slot arm names, and
// /stats exposes the bandit posteriors.
func TestExploreEndpoints(t *testing.T) {
	kv := kvstore.NewLocal(16)
	params := core.DefaultParams()
	params.Factors = 8
	opts := recommend.DefaultOptions()
	opts.Explore = true
	opts.ExploreSeed = 7
	sys, err := recommend.NewSystem(kv, params, simtable.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		sys.Catalog.Put(context.Background(), catalog.Video{ID: id, Type: "movie", Length: 30 * time.Minute})
	}
	base := time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		for _, v := range []string{"a", "b", "c"} {
			sys.Ingest(context.Background(), feedback.Action{
				UserID: u, VideoID: v, Type: feedback.PlayTime,
				ViewTime: 30 * time.Minute, VideoLength: 30 * time.Minute,
				Timestamp: base.Add(time.Duration(min) * time.Minute),
			})
			min++
		}
	}
	srv := httptest.NewServer(newMux(sys, &storeStack{kv: kv, local: kv}, nil))
	t.Cleanup(srv.Close)

	var body struct {
		Videos []struct {
			ID string
		}
		Explored bool
		Arms     []string
	}
	resp := getJSON(t, srv.URL+"/recommend?user=u1&video=a&n=3", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !body.Explored {
		t.Error("explored = false on an exploring system")
	}
	if len(body.Arms) != len(body.Videos) {
		t.Fatalf("%d arm names for %d videos", len(body.Arms), len(body.Videos))
	}
	for _, a := range body.Arms {
		switch a {
		case "mf", "sim", "hot":
		default:
			t.Errorf("unknown arm name %q", a)
		}
	}

	var stats map[string]any
	if resp := getJSON(t, srv.URL+"/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	arms, ok := stats["bandit"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing bandit section: %v", stats)
	}
	var totalPulls float64
	for _, name := range []string{"mf", "sim", "hot"} {
		arm, ok := arms[name].(map[string]any)
		if !ok {
			t.Fatalf("bandit section missing %s arm: %v", name, arms)
		}
		pulls, _ := arm["pulls"].(float64)
		totalPulls += pulls
		if _, ok := arm["posterior_mean"]; !ok {
			t.Errorf("%s arm stats missing posterior_mean", name)
		}
	}
	if totalPulls != float64(len(body.Videos)) {
		t.Errorf("total pulls %v, want one per served slot (%d)", totalPulls, len(body.Videos))
	}
}

// TestShardedStack builds the embedded -shards mem:2 tier, serves the full
// HTTP surface over it, migrates a slot through POST /rebalance under live
// state, and checks /stats reports the sharding section with the bumped map
// version.
func TestShardedStack(t *testing.T) {
	st, closeStore, err := buildShardedStore(context.Background(), "mem:2", kvstore.DefaultResilienceConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeStore)
	if st.sharded == nil || st.coord == nil || len(st.groups) != 2 {
		t.Fatalf("buildShardedStore composed %d groups, sharded=%v", len(st.groups), st.sharded != nil)
	}
	params := core.DefaultParams()
	params.Factors = 8
	sys, err := recommend.NewSystem(st.kv, params, simtable.DefaultConfig(), recommend.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		sys.Catalog.Put(context.Background(), catalog.Video{ID: id, Type: "movie", Length: 30 * time.Minute})
	}
	base := time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)
	min := 0
	for _, u := range []string{"u1", "u2", "u3"} {
		for _, v := range []string{"a", "b"} {
			sys.Ingest(context.Background(), feedback.Action{
				UserID: u, VideoID: v, Type: feedback.PlayTime,
				ViewTime: 30 * time.Minute, VideoLength: 30 * time.Minute,
				Timestamp: base.Add(time.Duration(min) * time.Minute),
			})
			min++
		}
	}
	srv := httptest.NewServer(newMux(sys, st, nil))
	t.Cleanup(srv.Close)

	var rec struct {
		Videos []struct{ ID string }
	}
	if resp := getJSON(t, srv.URL+"/recommend?user=visitor&video=a&n=2", &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend status = %d", resp.StatusCode)
	}
	if len(rec.Videos) == 0 {
		t.Fatal("sharded store served no videos")
	}

	// Move one slot owned by group 0 to group 1, then serve again: routing
	// must follow the new map with no visible difference.
	m, _ := st.coord.View()
	slot := -1
	for s := 0; s < kvstore.NumShardSlots; s++ {
		if m.GroupFor(s) == 0 {
			slot = s
			break
		}
	}
	resp, err := http.Post(srv.URL+"/rebalance?slot="+strconv.Itoa(slot)+"&to=g1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance status = %d", resp.StatusCode)
	}
	var moved struct {
		MapVersion uint64 `json:"map_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&moved); err != nil {
		t.Fatal(err)
	}
	if moved.MapVersion != 2 {
		t.Errorf("map_version after rebalance = %d, want 2", moved.MapVersion)
	}
	if resp := getJSON(t, srv.URL+"/recommend?user=visitor&video=a&n=2", &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rebalance recommend status = %d", resp.StatusCode)
	}

	// Bad rebalance requests are 400s; unknown target group is a 500.
	if resp := postStatus(t, srv.URL+"/rebalance?slot=9999&to=g1"); resp != http.StatusBadRequest {
		t.Errorf("out-of-range slot: status = %d, want 400", resp)
	}
	if resp := postStatus(t, srv.URL+"/rebalance?slot=0"); resp != http.StatusBadRequest {
		t.Errorf("missing target: status = %d, want 400", resp)
	}
	if resp := postStatus(t, srv.URL+"/rebalance?slot="+strconv.Itoa(slot)+"&to=nope"); resp != http.StatusInternalServerError {
		t.Errorf("unknown group: status = %d, want 500", resp)
	}

	var stats map[string]any
	if resp := getJSON(t, srv.URL+"/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	sh, ok := stats["sharding"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing sharding section: %v", stats)
	}
	if v, _ := sh["map_version"].(float64); v != 2 {
		t.Errorf("sharding map_version = %v, want 2", sh["map_version"])
	}
	groups, ok := sh["groups"].([]any)
	if !ok || len(groups) != 2 {
		t.Fatalf("sharding groups = %v, want 2 entries", sh["groups"])
	}
}

// postStatus POSTs with an empty body and returns just the status code.
func postStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestBuildShardedStoreRejectsBadSpecs pins the -shards spec validation.
func TestBuildShardedStoreRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"mem:0", "mem:257", "mem:x", ";", "a,;b"} {
		if _, _, err := buildShardedStore(context.Background(), spec, kvstore.DefaultResilienceConfig()); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}
