package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"vidrec/internal/bandit"
	"vidrec/internal/demographic"
	"vidrec/internal/recommend"
	"vidrec/internal/topn"
)

// referenceRecommendBody is how /recommend encoded its body before the typed
// encoder: a map reflected through encoding/json's Encoder.
func referenceRecommendBody(res *recommend.Result) ([]byte, error) {
	body := map[string]any{
		"videos":     res.Videos,
		"seeds":      res.Seeds,
		"candidates": res.Candidates,
		"hot_merged": res.HotMerged,
		"degraded":   res.Degraded,
		"explored":   res.Explored,
		"latency_us": res.Latency.Microseconds(),
	}
	if res.Arms != nil {
		arms := make([]string, len(res.Arms))
		for i, a := range res.Arms {
			arms[i] = a.String()
		}
		body["arms"] = arms
	}
	return referenceJSON(body)
}

func referenceJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// idPieces are the fragments random ids are built from: plain text, every
// byte encoding/json escapes, multi-byte and invalid UTF-8, and the two
// separators it escapes unconditionally.
var idPieces = []string{
	"v00042", "u", "abc", " ", "é", "日本", "😀", "<", ">", "&", `"`, `\`, "/",
	"\x00", "\x01", "\x08", "\t", "\n", "\x0b", "\f", "\r", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u2027", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func randomID(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.IntN(6); n >= 0; n-- {
		b.WriteString(idPieces[rng.IntN(len(idPieces))])
	}
	return b.String()
}

// randomScore covers both notations and their cutoffs, signed zeros,
// subnormals and the extremes.
func randomScore(rng *rand.Rand) float64 {
	switch rng.IntN(8) {
	case 0:
		return []float64{0, math.Copysign(0, -1), 1e-6, -1e-6, 1e21, -1e21, 9.999999999999999e-7,
			1e-7, 1e20, 999999999999999900000, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1, 0.1}[rng.IntN(15)]
	case 1:
		return float64(rng.IntN(2000) - 1000)
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(60)-30))
	}
}

func randomEntries(rng *rand.Rand) []topn.Entry {
	switch rng.IntN(10) {
	case 0:
		return nil
	case 1:
		return []topn.Entry{}
	}
	out := make([]topn.Entry, rng.IntN(12))
	for i := range out {
		out[i] = topn.Entry{ID: randomID(rng), Score: randomScore(rng)}
	}
	return out
}

func randomResult(rng *rand.Rand) *recommend.Result {
	res := &recommend.Result{
		Videos:     randomEntries(rng),
		Seeds:      rng.IntN(20),
		Candidates: rng.IntN(400) - 10,
		HotMerged:  rng.IntN(10),
		Degraded:   rng.IntN(2) == 0,
		Explored:   rng.IntN(2) == 0,
		Latency:    time.Duration(rng.Int64N(int64(time.Second))) - time.Millisecond,
	}
	switch rng.IntN(3) {
	case 0:
		res.Arms = []bandit.Arm{}
	case 1:
		res.Arms = make([]bandit.Arm, rng.IntN(8))
		for i := range res.Arms {
			res.Arms[i] = bandit.Arm(rng.IntN(bandit.NumArms + 2)) // out-of-range arms too
		}
	}
	return res
}

// TestEncodersMatchEncodingJSON holds the typed encoders to the bytes
// encoding/json wrote for the same values over 10k seeded random responses.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 42))
	for i := 0; i < 10000; i++ {
		res := randomResult(rng)
		want, err := referenceRecommendBody(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRecommend(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("/recommend body for %+v:\n got %q\nwant %q", res, got, want)
		}

		want, _ = referenceJSON(res.Videos)
		if got, _ = appendSimilar(nil, res.Videos); !bytes.Equal(got, want) {
			t.Fatalf("/similar body for %+v:\n got %q\nwant %q", res.Videos, got, want)
		}
		n := rng.IntN(1 << 20)
		want, _ = referenceJSON(map[string]int{"ingested": n})
		if got, _ = appendIngested(nil, n); !bytes.Equal(got, want) {
			t.Fatalf("/action body for %d: got %q, want %q", n, got, want)
		}
	}
}

// TestEncodersRefuseNonFiniteScores: NaN and ±Inf are not JSON. The encoder
// fails with encoding/json's own message wherever the score sits.
func TestEncodersRefuseNonFiniteScores(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &recommend.Result{Videos: []topn.Entry{{ID: "a", Score: 1}, {ID: "b", Score: bad}}}
		_, want := referenceRecommendBody(res)
		_, err := appendRecommend(nil, res)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("score %v: error %v, want %v", bad, err, want)
		}
		if _, err := appendSimilar(nil, res.Videos); err == nil {
			t.Errorf("score %v: /similar encoded it", bad)
		}
	}
}

// queryPieces build random raw queries around the three parameters the
// parser reads: repeated and escaped keys, '+', empty values, ';', bad
// %-escapes and the n values queryInt must trim or refuse.
var queryPieces = []string{
	"user=u1", "user=u2", "user=", "user", "us%65r=u3", "user=a+b", "user=a%2Bb", "user=%zz", "user=a;b",
	"video=v1", "video=v%30", "video=%", "video=x%2", "video=", "vid%65o=v2", "video=a%20b",
	"n=5", "n=", "n=-3", "n=0", "n=abc", "n=+7", "n=%207%20", "n=12", "n=1e3", "n=%3b", "n;=2",
	"x=1", "", "=", "&", ";", "user=u4;video=v3", "%=1", "n%3D4=5", "user=%E6%97%A5",
}

// TestParseRecQueryMatchesURL holds the single-pass parser to
// url.ParseQuery + Values.Get (and n's default handling) over random raw
// queries built from the awkward cases.
func TestParseRecQueryMatchesURL(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	for i := 0; i < 20000; i++ {
		parts := make([]string, rng.IntN(6))
		for j := range parts {
			parts[j] = queryPieces[rng.IntN(len(queryPieces))]
		}
		raw := strings.Join(parts, "&")
		vals, _ := url.ParseQuery(raw) // Request.URL.Query drops the error the same way
		want := recQuery{user: vals.Get("user"), video: vals.Get("video"), n: vals.Get("n")}
		if got := parseRecQuery(raw); got != want {
			t.Fatalf("parseRecQuery(%q) = %+v, want %+v", raw, got, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an allocation
// count sees only the handler's own work.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header       { return d.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// TestRecommendEdgeAllocs pins the /recommend handler's own work — parsing
// the query and encoding a full slate into the pooled buffer — at zero
// allocations once the pool is warm.
func TestRecommendEdgeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation empties sync.Pool at random")
	}
	res := &recommend.Result{Seeds: 5, Candidates: 180, HotMerged: 2, Latency: 21 * time.Microsecond}
	for i := 0; i < 10; i++ {
		res.Videos = append(res.Videos, topn.Entry{ID: "v0004" + string(rune('0'+i)), Score: 0.8731 - float64(i)*1e-3})
	}
	w := discardWriter{h: http.Header{}}
	raw := "user=u00042&n=10&video=v00017"
	avg := testing.AllocsPerRun(1000, func() {
		q := parseRecQuery(raw)
		if q.user == "" || queryInt(q.n, 10) != 10 {
			t.Fatal("query misparsed")
		}
		respond(w, res, appendRecommend)
	})
	if avg != 0 {
		t.Errorf("/recommend edge work allocates %v objects/op, want 0", avg)
	}
}

// TestNonFiniteScoreIs500 drives a NaN score to the HTTP surface: the
// response is a 500 naming the problem, not a 200 with an empty body.
func TestNonFiniteScoreIs500(t *testing.T) {
	srv, sys := testServer(t)
	ctx := context.Background()
	m, err := sys.Models.For(demographic.GlobalGroup)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		vec, _, _, err := m.ItemVector(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StoreItem(ctx, id, append([]float64(nil), vec...), math.NaN()); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(srv.URL + "/recommend?user=visitor&video=a&n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(text), "unsupported value: NaN") {
		t.Errorf("NaN score: %d %q, want 500 naming the NaN", resp.StatusCode, text)
	}
}

// TestWriteJSONEncodeErrorIs500 covers the buffered encoding/json path
// /stats and /rebalance use: an unencodable value is a 500, and nothing of
// the half-encoded body leaks out.
func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]any{"ok": 1, "posterior_mean": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value: +Inf") {
		t.Errorf("unencodable /stats value: %d %q, want 500 naming the value", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]any{"ok": 1})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"ok\":1}\n" || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("encodable value: %d %q %q", rec.Code, rec.Body.String(), rec.Header().Get("Content-Type"))
	}
}
