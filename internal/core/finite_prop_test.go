package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vidrec/internal/feedback"
	"vidrec/internal/kvstore"
)

// TestModelStateAlwaysFinite is the numeric-hygiene property test behind the
// "model state is always finite" invariant (DESIGN.md §6): 10k randomized
// SGD steps — including adversarial zero-length videos, zero and overlong
// view times, and every action type — must never leave a NaN, an Inf, or an
// out-of-band magnitude in any stored user/item vector or bias.
func TestModelStateAlwaysFinite(t *testing.T) {
	const steps = 10000
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	store := kvstore.NewLocal(16)
	p := testParams()
	p.Rule = RuleCombine
	m, err := NewModel("prop", store, p)
	if err != nil {
		t.Fatal(err)
	}

	types := feedback.ActionTypes()
	// Adversarial duration menu: zero, negative, tiny, huge, and the
	// overflow-adjacent extremes.
	durs := []time.Duration{
		0, -time.Second, time.Nanosecond, time.Millisecond,
		time.Second, time.Hour, 24 * 365 * time.Hour,
		time.Duration(math.MaxInt64), time.Duration(math.MinInt64),
	}
	base := time.Unix(1_457_308_800, 0) // 2016-03-07, the paper's era

	for i := 0; i < steps; i++ {
		a := feedback.Action{
			UserID:    fmt.Sprintf("u%03d", rng.Intn(50)),
			VideoID:   fmt.Sprintf("v%03d", rng.Intn(120)),
			Type:      types[rng.Intn(len(types))],
			Timestamp: base.Add(time.Duration(i) * time.Second),
		}
		if a.Type == feedback.PlayTime {
			a.ViewTime = durs[rng.Intn(len(durs))]
			a.VideoLength = durs[rng.Intn(len(durs))]
		}
		if _, err := m.ProcessAction(ctx, a); err != nil {
			t.Fatalf("step %d: ProcessAction(%+v): %v", i, a, err)
		}

		// Spot-check the hot pair every 500 steps so a corruption is
		// caught near the step that caused it, not 10k steps later.
		if i%500 == 0 {
			assertFinitePrediction(t, ctx, m, a.UserID, a.VideoID, i)
		}
	}

	// Full sweep: every parameter of every stored vector and bias.
	bad := 0
	store.ForEach(func(key string, val []byte) bool {
		ns, id, ok := strings.Cut(key, ":")
		if !ok {
			t.Errorf("malformed key %q: no namespace separator", key)
			return true
		}
		switch ns {
		case "prop.uv", "prop.iv":
			vec, err := kvstore.DecodeFloats(val)
			if err != nil {
				t.Errorf("key %q: %v", key, err)
				return true
			}
			for j, x := range vec {
				if math.IsNaN(x) || math.Abs(x) > MaxParamMagnitude {
					t.Errorf("%s[%d] for %s = %v, not finite/bounded", ns, j, id, x)
					bad++
				}
			}
		case "prop.ub", "prop.ib":
			b, err := kvstore.DecodeFloat(val)
			if err != nil {
				t.Errorf("key %q: %v", key, err)
				return true
			}
			if math.IsNaN(b) || math.Abs(b) > MaxParamMagnitude {
				t.Errorf("bias %s for %s = %v, not finite/bounded", ns, id, b)
				bad++
			}
		}
		return bad < 20 // stop flooding the log if state is badly corrupt
	})

	if n := m.Stats().Diverged.Load(); n > 0 {
		// Divergence discards are legal (drop-don't-store), but with the
		// Eq. 6 clamp in place none of these inputs should trigger them.
		t.Errorf("Diverged = %d, want 0: adversarial vrates should be clamped before SGD", n)
	}
}

func assertFinitePrediction(t *testing.T, ctx context.Context, m *Model, user, item string, step int) {
	t.Helper()
	pred, err := m.Predict(ctx, user, item)
	if err != nil {
		t.Fatalf("step %d: Predict(%s,%s): %v", step, user, item, err)
	}
	if math.IsNaN(pred) || math.IsInf(pred, 0) {
		t.Fatalf("step %d: Predict(%s,%s) = %v, not finite", step, user, item, pred)
	}
}
