package topn

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestRankerMatchesListOnDistinctIDs pins the equivalence contract: for any
// stream of distinct ids, Ranker produces exactly the sequence of admission
// decisions and the final ordering List does — including tie handling, which
// the serving goldens depend on.
func TestRankerMatchesListOnDistinctIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 99))
	for trial := 0; trial < 200; trial++ {
		limit := 1 + rng.IntN(12)
		n := rng.IntN(60)
		l := NewList(limit)
		r := NewRanker(limit)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("v%04d", i)
			// Coarse scores force plenty of exact ties.
			score := float64(rng.IntN(8))
			la := l.Update(id, score)
			ra := r.Push(id, score)
			if la != ra {
				t.Fatalf("trial %d entry %d: List admitted=%v, Ranker admitted=%v", trial, i, la, ra)
			}
		}
		le, re := l.All(), r.All()
		if len(le) != len(re) {
			t.Fatalf("trial %d: List kept %d, Ranker kept %d", trial, len(le), len(re))
		}
		for i := range le {
			if le[i] != re[i] {
				t.Fatalf("trial %d slot %d: List %+v, Ranker %+v", trial, i, le[i], re[i])
			}
		}
	}
}

func TestRankerResetAndLimits(t *testing.T) {
	r := NewRanker(3)
	for i, s := range []float64{1, 5, 3, 4, 2} {
		r.Push(fmt.Sprintf("v%d", i), s)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.All()
	want := []Entry{{ID: "v1", Score: 5}, {ID: "v3", Score: 4}, {ID: "v2", Score: 3}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All = %v, want %v", got, want)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRanker(0) did not panic")
		}
	}()
	NewRanker(0)
}

// TestRankerPushAllocationFree pins the hot-path contract the Ranker exists
// for: ranking a full candidate batch performs zero allocations.
func TestRankerPushAllocationFree(t *testing.T) {
	r := NewRanker(10)
	ids := make([]string, 200)
	scores := make([]float64, 200)
	rng := rand.New(rand.NewPCG(7, 3))
	for i := range ids {
		ids[i] = fmt.Sprintf("v%04d", i)
		scores[i] = rng.Float64()
	}
	n := testing.AllocsPerRun(100, func() {
		r.Reset()
		for i := range ids {
			r.Push(ids[i], scores[i])
		}
	})
	if n != 0 {
		t.Fatalf("ranking 200 candidates allocates %v per run, want 0", n)
	}
}
