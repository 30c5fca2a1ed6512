package objcache

import "testing"

func entry(n int) cacheEntry { return cacheEntry{value: n, present: true} }

func TestLRUGetPut(t *testing.T) {
	c := newLRU(4)
	if _, ok := c.get("a"); ok {
		t.Error("empty policy hit")
	}
	c.put("a", entry(1))
	if e, ok := c.get("a"); !ok || e.value != 1 {
		t.Errorf("get(a) = %v,%v", e, ok)
	}
	c.put("a", entry(2)) // refresh
	if e, _ := c.get("a"); e.value != 2 {
		t.Errorf("refreshed value = %v, want 2", e.value)
	}
	if c.order.Len() != 1 {
		t.Errorf("len = %d, want 1 (no duplicate)", c.order.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU(3)
	c.put("1", entry(1))
	c.put("2", entry(2))
	c.put("3", entry(3))
	c.get("1")           // 1 becomes most recent; 2 is now oldest
	c.put("4", entry(4)) // evicts 2
	if _, ok := c.get("2"); ok {
		t.Error("LRU entry not evicted")
	}
	for _, k := range []string{"1", "3", "4"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("entry %s wrongly evicted", k)
		}
	}
}

func TestLRUEvictionsCounter(t *testing.T) {
	c := newLRU(2)
	c.put("a", entry(1))
	c.put("b", entry(2))
	if c.evictions != 0 {
		t.Fatalf("evictions = %d before overflow, want 0", c.evictions)
	}
	c.put("c", entry(3)) // evicts "a"
	c.put("d", entry(4)) // evicts "b"
	if c.evictions != 2 {
		t.Errorf("evictions = %d, want 2", c.evictions)
	}
	// Refreshing an existing key is not an eviction.
	c.put("d", entry(5))
	if c.evictions != 2 {
		t.Errorf("evictions = %d after refresh, want 2", c.evictions)
	}
}

func TestLRURemove(t *testing.T) {
	c := newLRU(2)
	c.put("a", entry(1))
	c.remove("a")
	if _, ok := c.get("a"); ok {
		t.Fatal("removed key still readable")
	}
	c.remove("a") // absent: a no-op
	if c.order.Len() != 0 {
		t.Errorf("len = %d after removal, want 0", c.order.Len())
	}
	// Removal is an invalidation, not an eviction, and frees the slot
	// without evicting on the next puts.
	c.put("b", entry(2))
	c.put("c", entry(3))
	if c.evictions != 0 {
		t.Errorf("evictions = %d after remove and refill, want 0", c.evictions)
	}
}
