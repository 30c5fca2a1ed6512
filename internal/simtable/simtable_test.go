package simtable

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"vidrec/internal/catalog"
	"vidrec/internal/core"
	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
	"vidrec/internal/objcache"
)

func testConfig() Config {
	c := DefaultConfig()
	c.TableSize = 5
	return c
}

func newTables(t *testing.T, cfg Config) *Tables {
	t.Helper()
	tb, err := New("t", kvstore.NewLocal(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func at(h int) time.Time { return time.Unix(0, 0).Add(time.Duration(h) * time.Hour) }

func TestConfigValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Beta = -0.1 },
		func(c *Config) { c.Beta = 1.1 },
		func(c *Config) { c.Xi = 0 },
		func(c *Config) { c.TableSize = 0 },
		func(c *Config) { c.ScoreFloor = -1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestDampEquation11 pins d = 2^(−Δt/ξ) at known points.
func TestDampEquation11(t *testing.T) {
	c := Config{Xi: 24 * time.Hour}
	tests := []struct {
		age  time.Duration
		want float64
	}{
		{0, 1},
		{-time.Hour, 1}, // clock skew never amplifies
		{24 * time.Hour, 0.5},
		{48 * time.Hour, 0.25},
		{12 * time.Hour, math.Exp2(-0.5)},
	}
	for _, tt := range tests {
		if got := c.Damp(tt.age); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Damp(%v) = %v, want %v", tt.age, got, tt.want)
		}
	}
}

// TestDampMonotone property-checks that older always means smaller.
func TestDampMonotone(t *testing.T) {
	c := Config{Xi: time.Hour}
	f := func(aRaw, bRaw uint32) bool {
		a := time.Duration(aRaw) * time.Second
		b := time.Duration(bRaw) * time.Second
		if a > b {
			a, b = b, a
		}
		return c.Damp(b) <= c.Damp(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFuseEquation12 pins the fusion arithmetic.
func TestFuseEquation12(t *testing.T) {
	c := Config{Beta: 0.3}
	if got, want := c.Fuse(0.8, 1), 0.7*0.8+0.3*1; math.Abs(got-want) > 1e-12 {
		t.Errorf("Fuse = %v, want %v", got, want)
	}
	if got := c.Fuse(0.8, 0); math.Abs(got-0.56) > 1e-12 {
		t.Errorf("Fuse without type match = %v, want 0.56", got)
	}
}

func TestTypeSimilarityEquation10(t *testing.T) {
	if TypeSimilarity("a", "a") != 1 {
		t.Error("equal types must score 1")
	}
	if TypeSimilarity("a", "b") != 0 {
		t.Error("different types must score 0")
	}
	if TypeSimilarity("", "") != 0 {
		t.Error("unknown types must not match each other")
	}
}

func TestCFSimilarityUsesItemVectors(t *testing.T) {
	p := core.DefaultParams()
	p.Factors = 8
	m, _ := core.NewModel("m", kvstore.NewLocal(4), p)
	// Train two videos on the same user so their vectors correlate, and a
	// third on a different user.
	for i := 0; i < 60; i++ {
		m.ProcessAction(context.Background(), feedback.Action{UserID: "u1", VideoID: "a", Type: feedback.Share})
		m.ProcessAction(context.Background(), feedback.Action{UserID: "u1", VideoID: "b", Type: feedback.Share})
		m.ProcessAction(context.Background(), feedback.Action{UserID: "u2", VideoID: "c", Type: feedback.Share})
		m.ProcessAction(context.Background(), feedback.Action{UserID: "u1", VideoID: "x", Type: feedback.Impress})
		m.ProcessAction(context.Background(), feedback.Action{UserID: "u2", VideoID: "y", Type: feedback.Impress})
	}
	sAB, err := CFSimilarity(context.Background(), m, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	sAC, err := CFSimilarity(context.Background(), m, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if sAB <= sAC {
		t.Errorf("co-watched pair similarity %v not above unrelated pair %v", sAB, sAC)
	}
}

func TestUpdateAndSimilar(t *testing.T) {
	tb := newTables(t, testConfig())
	now := at(0)
	tb.UpdateDirected(context.Background(), "a", "b", 0.9, now)
	tb.UpdateDirected(context.Background(), "a", "c", 0.5, now)
	got, err := tb.Similar(context.Background(), "a", 10, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "c" {
		t.Fatalf("Similar = %+v", got)
	}
	if math.Abs(got[0].Score-0.9) > 1e-12 {
		t.Errorf("fresh score = %v, want 0.9", got[0].Score)
	}
}

func TestSimilarUnknownVideo(t *testing.T) {
	tb := newTables(t, testConfig())
	got, err := tb.Similar(context.Background(), "ghost", 5, at(0))
	if err != nil || got != nil {
		t.Errorf("Similar(ghost) = %v, %v", got, err)
	}
}

func TestSelfPairRejected(t *testing.T) {
	tb := newTables(t, testConfig())
	if err := tb.UpdateDirected(context.Background(), "a", "a", 1, at(0)); err == nil {
		t.Error("self-pair accepted")
	}
}

// TestDecayAtRead: scores halve after ξ without updates.
func TestDecayAtRead(t *testing.T) {
	cfg := testConfig()
	cfg.Xi = 24 * time.Hour
	tb := newTables(t, cfg)
	tb.UpdateDirected(context.Background(), "a", "b", 0.8, at(0))
	got, _ := tb.Similar(context.Background(), "a", 5, at(24))
	if len(got) != 1 || math.Abs(got[0].Score-0.4) > 1e-12 {
		t.Errorf("after ξ Similar = %+v, want score 0.4", got)
	}
}

// TestUpdateResetsClockForTouchedPairOnly: the refreshed pair outranks a
// formerly stronger but stale pair — the "past similar videos should be
// gradually forgotten" behaviour.
func TestUpdateResetsClockForTouchedPairOnly(t *testing.T) {
	cfg := testConfig()
	cfg.Xi = 24 * time.Hour
	tb := newTables(t, cfg)
	tb.UpdateDirected(context.Background(), "a", "old", 0.9, at(0))
	tb.UpdateDirected(context.Background(), "a", "fresh", 0.5, at(48)) // old has decayed to 0.225
	got, _ := tb.Similar(context.Background(), "a", 5, at(48))
	if len(got) != 2 {
		t.Fatalf("Similar = %+v", got)
	}
	if got[0].ID != "fresh" {
		t.Errorf("top entry = %s (%v), want fresh", got[0].ID, got[0].Score)
	}
	if math.Abs(got[1].Score-0.9/4) > 1e-12 {
		t.Errorf("stale score = %v, want 0.225", got[1].Score)
	}
}

func TestFloorPrunesForgottenPairs(t *testing.T) {
	cfg := testConfig()
	cfg.Xi = time.Hour
	cfg.ScoreFloor = 0.01
	tb := newTables(t, cfg)
	tb.UpdateDirected(context.Background(), "a", "b", 0.5, at(0))
	// After 10 half-lives the 0.5 score is ~0.0005, far below the floor.
	got, _ := tb.Similar(context.Background(), "a", 5, at(10))
	if len(got) != 0 {
		t.Errorf("forgotten pair still served: %+v", got)
	}
	// A touch at t=10 must also prune it from storage.
	tb.UpdateDirected(context.Background(), "a", "c", 0.5, at(10))
	got, _ = tb.Similar(context.Background(), "a", 5, at(10))
	if len(got) != 1 || got[0].ID != "c" {
		t.Errorf("after prune Similar = %+v, want [c]", got)
	}
}

// TestSimilarIDsMatchesSimilar: SimilarIDs is Similar without the damped
// copy, so at every age it must return the same ids in the same order,
// stopping at the same score floor — both on a miss and when every table
// is served from the read cache.
func TestSimilarIDsMatchesSimilar(t *testing.T) {
	cfg := testConfig()
	cfg.Xi = time.Hour
	cfg.ScoreFloor = 0.01
	tb := newTables(t, cfg)
	tb.SetCache(objcache.New(16))
	ctx := context.Background()
	for i, score := range []float64{0.5, 0.2, 0.08, 0.03} {
		tb.UpdateDirected(ctx, "a", fmt.Sprintf("v%d", i), score, at(0))
	}
	tb.UpdateDirected(ctx, "b", "v0", 0.4, at(0))
	seeds := []string{"a", "b", "unseen"}
	for h := 0; h <= 10; h++ {
		var want []string
		for _, seed := range seeds {
			entries, err := tb.Similar(ctx, seed, 3, at(h))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				want = append(want, e.ID)
			}
		}
		for _, path := range []string{"miss", "hit"} {
			if path == "miss" {
				tb.cache.Flush()
			}
			got, err := tb.SimilarIDs(ctx, seeds, 3, at(h), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("after %dh SimilarIDs (%s) = %v, Similar ids = %v", h, path, got, want)
			}
			if h == 10 && len(got) != 0 {
				t.Errorf("after 10 half-lives SimilarIDs (%s) still serves %v", path, got)
			}
		}
	}
}

func TestTableSizeBound(t *testing.T) {
	cfg := testConfig()
	cfg.TableSize = 3
	tb := newTables(t, cfg)
	now := at(0)
	tb.UpdateDirected(context.Background(), "a", "v1", 0.1, now)
	tb.UpdateDirected(context.Background(), "a", "v2", 0.4, now)
	tb.UpdateDirected(context.Background(), "a", "v3", 0.3, now)
	tb.UpdateDirected(context.Background(), "a", "v4", 0.2, now) // evicts v1
	got, _ := tb.Similar(context.Background(), "a", 10, now)
	if len(got) != 3 {
		t.Fatalf("table size = %d, want 3", len(got))
	}
	for _, e := range got {
		if e.ID == "v1" {
			t.Error("weakest entry not evicted")
		}
	}
}

func TestOutOfOrderUpdateDoesNotAmplify(t *testing.T) {
	cfg := testConfig()
	cfg.Xi = time.Hour
	tb := newTables(t, cfg)
	tb.UpdateDirected(context.Background(), "a", "b", 0.5, at(10))
	tb.UpdateDirected(context.Background(), "a", "c", 0.5, at(8)) // late-arriving older action
	got, _ := tb.Similar(context.Background(), "a", 5, at(10))
	for _, e := range got {
		if e.Score > 0.5+1e-12 {
			t.Errorf("entry %s amplified to %v", e.ID, e.Score)
		}
	}
}

func TestPairScoreCombinesFactors(t *testing.T) {
	kv := kvstore.NewLocal(4)
	p := core.DefaultParams()
	p.Factors = 8
	m, _ := core.NewModel("m", kv, p)
	cat, _ := catalog.New("c", kv)
	cat.Put(context.Background(), catalog.Video{ID: "a", Type: "movie", Length: time.Hour})
	cat.Put(context.Background(), catalog.Video{ID: "b", Type: "movie", Length: time.Hour})
	cat.Put(context.Background(), catalog.Video{ID: "c", Type: "news", Length: time.Hour})
	cfg := testConfig()
	cfg.Beta = 0.5
	tb, _ := New("t", kv, cfg)

	sameType, err := tb.PairScore(context.Background(), m, cat, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	diffType, err := tb.PairScore(context.Background(), m, cat, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	// With an untrained model CF similarity ≈ 0, so the type term dominates.
	if sameType <= diffType {
		t.Errorf("same-type score %v not above cross-type %v", sameType, diffType)
	}
	if math.Abs(sameType-diffType-0.5) > 0.01 {
		t.Errorf("type contribution = %v, want ≈ β = 0.5", sameType-diffType)
	}
}

func TestNewValidation(t *testing.T) {
	kv := kvstore.NewLocal(1)
	if _, err := New("", kv, DefaultConfig()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("t", nil, DefaultConfig()); err == nil {
		t.Error("nil store accepted")
	}
	bad := DefaultConfig()
	bad.Xi = 0
	if _, err := New("t", kv, bad); err == nil {
		t.Error("invalid config accepted")
	}
	tb, err := New("t", kv, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Config().TableSize != DefaultConfig().TableSize {
		t.Error("Config accessor mismatch")
	}
}

func TestCorruptTableRecordErrors(t *testing.T) {
	kv := kvstore.NewLocal(1)
	tb, _ := New("t", kv, DefaultConfig())
	kv.Set(context.Background(), "t.sim:a", []byte{1, 2}) // shorter than the timestamp header
	if _, err := tb.Similar(context.Background(), "a", 5, at(0)); err == nil {
		t.Error("truncated table decoded without error")
	}
	kv.Set(context.Background(), "t.sim:b", append(kvstore.EncodeInt64(0), 0xFF, 0xFF)) // bad entries
	if _, err := tb.Similar(context.Background(), "b", 5, at(0)); err == nil {
		t.Error("corrupt entries decoded without error")
	}
}

func TestCFSimilaritySurfacesStoreErrors(t *testing.T) {
	faulty := kvstore.NewFaulty(kvstore.NewLocal(2), 5)
	p := core.DefaultParams()
	p.Factors = 4
	m, _ := core.NewModel("m", faulty, p)
	faulty.SetFailRate(1)
	if _, err := CFSimilarity(context.Background(), m, "a", "b"); err == nil {
		t.Error("store failure swallowed")
	}
}

func TestPairsSkipsSelf(t *testing.T) {
	got := Pairs("v", []string{"a", "v", "b"})
	if len(got) != 2 || got[0] != [2]string{"v", "a"} || got[1] != [2]string{"v", "b"} {
		t.Errorf("Pairs = %v", got)
	}
}

// TestTableInvariantsQuick property-checks arbitrary update sequences: the
// stored list stays sorted descending, bounded, duplicate-free, and every
// served score is non-negative and never above the freshest raw score seen.
func TestTableInvariantsQuick(t *testing.T) {
	type op struct {
		Other uint8
		Score float64
		HourD uint8
	}
	f := func(ops []op) bool {
		cfg := DefaultConfig()
		cfg.TableSize = 6
		cfg.Xi = 2 * time.Hour
		tb, err := New("t", kvstore.NewLocal(2), cfg)
		if err != nil {
			return false
		}
		now := at(0)
		var maxRaw float64
		for _, o := range ops {
			now = now.Add(time.Duration(o.HourD%5) * time.Hour)
			score := math.Abs(math.Mod(o.Score, 1)) // raw scores in [0,1)
			if score > maxRaw {
				maxRaw = score
			}
			other := fmt.Sprintf("v%d", o.Other%10)
			if other == "seed" {
				continue
			}
			if err := tb.UpdateDirected(context.Background(), "seed", other, score, now); err != nil {
				return false
			}
		}
		got, err := tb.Similar(context.Background(), "seed", 100, now)
		if err != nil || len(got) > cfg.TableSize {
			return false
		}
		seen := map[string]bool{}
		for i, e := range got {
			if seen[e.ID] || e.Score < 0 || e.Score > maxRaw+1e-9 {
				return false
			}
			seen[e.ID] = true
			if i > 0 && got[i-1].Score < e.Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSimilarOrderStableUnderSharedDecay: residual decay at read scales all
// entries equally, so rank order never changes between reads.
func TestSimilarOrderStableUnderSharedDecay(t *testing.T) {
	cfg := testConfig()
	cfg.ScoreFloor = 0 // keep entries visible at long horizons
	tb := newTables(t, cfg)
	tb.UpdateDirected(context.Background(), "a", "x", 0.9, at(0))
	tb.UpdateDirected(context.Background(), "a", "y", 0.7, at(1))
	tb.UpdateDirected(context.Background(), "a", "z", 0.8, at(2))
	first, _ := tb.Similar(context.Background(), "a", 5, at(3))
	later, _ := tb.Similar(context.Background(), "a", 5, at(40))
	if len(first) != len(later) {
		t.Fatalf("entry counts differ: %d vs %d", len(first), len(later))
	}
	for i := range first {
		if first[i].ID != later[i].ID {
			t.Errorf("rank %d changed: %s → %s", i, first[i].ID, later[i].ID)
		}
	}
}

// TestDampGuardsNonpositiveXi: a Config that skipped Validate must yield a
// finite (fully-forgotten) damp factor, never NaN.
func TestDampGuardsNonpositiveXi(t *testing.T) {
	for _, xi := range []time.Duration{0, -time.Hour} {
		c := Config{Xi: xi}
		for _, age := range []time.Duration{0, time.Nanosecond, time.Hour, 365 * 24 * time.Hour} {
			got := c.Damp(age)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("Damp(xi=%v, age=%v) = %v, not finite", xi, age, got)
			}
			if got != 0 {
				t.Errorf("Damp(xi=%v, age=%v) = %v, want 0 (fully forgotten)", xi, age, got)
			}
		}
	}
}
