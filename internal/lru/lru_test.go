package lru

import "testing"

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	New[string, int](0)
}

func TestGetPut(t *testing.T) {
	c := New[string, int](4)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d,%v", v, ok)
	}
	c.Put("a", 2) // refresh
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("refreshed value = %d, want 2", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (no duplicate)", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int](3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1)    // 1 becomes most recent; 2 is now oldest
	c.Put(4, 4) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("LRU entry not evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %d wrongly evicted", k)
		}
	}
}

func TestStats(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("miss")
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2/1", hits, misses)
	}
	if hr := c.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("HitRate = %v, want 2/3", hr)
	}
	empty := New[string, int](2)
	if empty.HitRate() != 0 {
		t.Error("HitRate of untouched cache not 0")
	}
}

func TestEvictionsCounter(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Evictions() != 0 {
		t.Fatalf("Evictions = %d before overflow, want 0", c.Evictions())
	}
	c.Put("c", 3) // evicts "a"
	c.Put("d", 4) // evicts "b"
	if c.Evictions() != 2 {
		t.Errorf("Evictions = %d, want 2", c.Evictions())
	}
	// Refreshing an existing key is not an eviction.
	c.Put("d", 5)
	if c.Evictions() != 2 {
		t.Errorf("Evictions = %d after refresh, want 2", c.Evictions())
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	if !c.Remove("a") {
		t.Fatal("Remove of present key returned false")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("removed key still readable")
	}
	if c.Remove("a") {
		t.Fatal("Remove of absent key returned true")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after removal, want 0", c.Len())
	}
	// Removal is an invalidation, not an eviction.
	if c.Evictions() != 0 {
		t.Errorf("Remove counted as eviction: %d", c.Evictions())
	}
	// Removing must free the slot without evicting on the next Put.
	c.Put("b", 2)
	c.Put("c", 3)
	if c.Evictions() != 0 {
		t.Errorf("Put after Remove evicted: %d", c.Evictions())
	}
}

func TestCap(t *testing.T) {
	if got := New[string, int](7).Cap(); got != 7 {
		t.Errorf("Cap = %d, want 7", got)
	}
}
