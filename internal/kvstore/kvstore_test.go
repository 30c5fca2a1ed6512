package kvstore

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestLocalGetSetDelete(t *testing.T) {
	s := NewLocal(4)
	if _, ok, _ := s.Get(context.Background(), "missing"); ok {
		t.Error("Get on empty store reported a hit")
	}
	if err := s.Set(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get(context.Background(), "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if n, _ := s.Len(context.Background()); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	if ok, _ := s.Delete(context.Background(), "k"); !ok {
		t.Error("Delete existing = false")
	}
	if ok, _ := s.Delete(context.Background(), "k"); ok {
		t.Error("Delete missing = true")
	}
}

func TestLocalCopySemantics(t *testing.T) {
	s := NewLocal(1)
	val := []byte{1, 2, 3}
	s.Set(context.Background(), "k", val)
	val[0] = 99 // mutating the caller's slice must not affect the store
	got, _, _ := s.Get(context.Background(), "k")
	if got[0] != 1 {
		t.Error("Set did not copy its input")
	}
	got[1] = 99 // mutating the returned slice must not affect the store
	again, _, _ := s.Get(context.Background(), "k")
	if again[1] != 2 {
		t.Error("Get did not copy its output")
	}
}

func TestLocalUpdate(t *testing.T) {
	s := NewLocal(2)
	// Create via Update.
	err := s.Update(context.Background(), "c", func(cur []byte, exists bool) ([]byte, bool) {
		if exists {
			t.Error("Update on missing key reported exists=true")
		}
		return []byte{1}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Modify via Update.
	s.Update(context.Background(), "c", func(cur []byte, exists bool) ([]byte, bool) {
		if !exists || cur[0] != 1 {
			t.Errorf("Update got cur=%v exists=%v", cur, exists)
		}
		return []byte{cur[0] + 1}, true
	})
	v, _, _ := s.Get(context.Background(), "c")
	if v[0] != 2 {
		t.Errorf("after updates value = %v, want [2]", v)
	}
	// Delete via Update.
	s.Update(context.Background(), "c", func([]byte, bool) ([]byte, bool) { return nil, false })
	if _, ok, _ := s.Get(context.Background(), "c"); ok {
		t.Error("Update delete left the key present")
	}
}

func TestLocalUpdateIsAtomic(t *testing.T) {
	s := NewLocal(1) // single shard maximizes contention
	s.Set(context.Background(), "n", EncodeInt64(0))
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Update(context.Background(), "n", func(cur []byte, _ bool) ([]byte, bool) {
					n, _ := DecodeInt64(cur)
					return EncodeInt64(n + 1), true
				})
			}
		}()
	}
	wg.Wait()
	v, _, _ := s.Get(context.Background(), "n")
	n, _ := DecodeInt64(v)
	if n != workers*perWorker {
		t.Errorf("counter = %d, want %d (lost updates)", n, workers*perWorker)
	}
}

func TestLocalMGet(t *testing.T) {
	s := NewLocal(4)
	s.Set(context.Background(), "a", []byte("1"))
	s.Set(context.Background(), "c", []byte("3"))
	vals, err := s.MGet(context.Background(), []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || vals[1] != nil || string(vals[2]) != "3" {
		t.Errorf("MGet = %q", vals)
	}
}

func TestLocalStats(t *testing.T) {
	s := NewLocal(2)
	s.Set(context.Background(), "a", nil)
	s.Get(context.Background(), "a")
	s.Get(context.Background(), "b")
	snap := s.Stats().Snapshot()
	if snap.Sets != 1 || snap.Gets != 2 || snap.Hits != 1 {
		t.Errorf("stats = %+v", snap)
	}
	if hr := snap.HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", hr)
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {4, 4}, {5, 8}} {
		if got := NewLocal(tc.in).Shards(); got != tc.want {
			t.Errorf("NewLocal(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestForEach(t *testing.T) {
	s := NewLocal(4)
	for i := 0; i < 10; i++ {
		s.Set(context.Background(), fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	seen := 0
	s.ForEach(func(string, []byte) bool { seen++; return true })
	if seen != 10 {
		t.Errorf("ForEach visited %d keys, want 10", seen)
	}
	seen = 0
	s.ForEach(func(string, []byte) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Errorf("ForEach with early stop visited %d, want 3", seen)
	}
}

func TestKeyNamespace(t *testing.T) {
	// Ids may themselves contain the separator; the namespace ends at the
	// first one.
	if k := Key("uv", "user:42"); k != "uv:user:42" {
		t.Errorf("Key(uv, user:42) = %q", k)
	}
}

// TestLocalMatchesMapModel property-checks the sharded store against a plain
// map under a random op sequence.
func TestLocalMatchesMapModel(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  []byte
	}
	f := func(ops []op) bool {
		s := NewLocal(4)
		model := map[string][]byte{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%16)
			switch o.Kind % 3 {
			case 0:
				s.Set(context.Background(), k, o.Val)
				model[k] = append([]byte(nil), o.Val...)
			case 1:
				gv, gok, _ := s.Get(context.Background(), k)
				mv, mok := model[k]
				if gok != mok || string(gv) != string(mv) {
					return false
				}
			case 2:
				dok, _ := s.Delete(context.Background(), k)
				_, mok := model[k]
				delete(model, k)
				if dok != mok {
					return false
				}
			}
		}
		n, _ := s.Len(context.Background())
		return n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestHitRateZeroGets: the hit rate of an untouched store is 0, not NaN.
func TestHitRateZeroGets(t *testing.T) {
	if hr := (StatsSnapshot{}).HitRate(); hr != 0 {
		t.Errorf("HitRate with zero gets = %v, want 0", hr)
	}
	if hr := NewLocal(4).Stats().Snapshot().HitRate(); hr != 0 {
		t.Errorf("fresh store HitRate = %v, want 0", hr)
	}
}
