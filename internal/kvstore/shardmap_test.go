package kvstore

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestSlotForKeyMatchesHash(t *testing.T) {
	keys := []string{"", "uv:u1", "iv:v42", "sim:v7", "uh:u9", strings.Repeat("k", 300)}
	for _, k := range keys {
		if got, want := SlotForKey(k), int(fnv1a32(k)%NumShardSlots); got != want {
			t.Errorf("SlotForKey(%q) = %d, want %d", k, got, want)
		}
		if s := SlotForKey(k); s < 0 || s >= NumShardSlots {
			t.Errorf("SlotForKey(%q) = %d out of range", k, s)
		}
	}
}

func TestNewShardMapValidates(t *testing.T) {
	if _, err := NewShardMap(nil); err == nil {
		t.Error("empty group list accepted")
	}
	if _, err := NewShardMap([]string{"g0", ""}); err == nil {
		t.Error("empty group name accepted")
	}
	if _, err := NewShardMap([]string{"g0", "g1", "g0"}); err == nil {
		t.Error("duplicate group name accepted")
	}
	names := make([]string, 257)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
	}
	if _, err := NewShardMap(names); err == nil {
		t.Error("257 groups accepted")
	}
}

func TestShardMapEveryGroupOwnsSlots(t *testing.T) {
	m, err := NewShardMap([]string{"g0", "g1", "g2", "g3"})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(m.Groups))
	for s := range m.Slots {
		counts[m.GroupFor(s)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("group %d owns no slots", i)
		}
	}
}

// TestShardMapStability is the consistent-hash property test: for any key
// set and any shard count 1..16, every key routes to exactly one group, and
// growing the cluster N→N+1 moves at most ~keys/(N+1) keys — all of them to
// the new group, none between surviving groups.
func TestShardMapStability(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 17))
	keys := make([]string, 2000)
	for i := range keys {
		keys[i] = fmt.Sprintf("ns%d:id%08x", rng.IntN(5), rng.Uint32())
	}
	names := make([]string, 17)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
	}
	owner := func(m *ShardMap, key string) string {
		return m.Groups[m.GroupFor(SlotForKey(key))]
	}
	for n := 1; n <= 16; n++ {
		cur, err := NewShardMap(names[:n])
		if err != nil {
			t.Fatal(err)
		}
		// Exactly-one-group: the owner is a total deterministic function.
		for _, k := range keys {
			a, b := owner(cur, k), owner(cur, k)
			if a != b {
				t.Fatalf("n=%d: key %q routed to %q then %q", n, k, a, b)
			}
		}
		if n == 16 {
			break
		}
		next, err := NewShardMap(names[:n+1])
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys {
			if a, b := owner(cur, k), owner(next, k); a != b {
				moved++
				if b != names[n] {
					t.Fatalf("n=%d: key %q moved %q → %q, not to the new group", n, k, a, b)
				}
			}
		}
		// Expected movement is keys/(n+1); the slack term covers slot
		// granularity (moves happen 256ths of the key space at a time).
		bound := (len(keys)+n)/(n+1) + len(keys)/8
		if moved > bound {
			t.Errorf("n=%d→%d moved %d keys, bound %d", n, n+1, moved, bound)
		}
	}
}
