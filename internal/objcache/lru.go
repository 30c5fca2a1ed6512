package objcache

import "container/list"

// lru is one shard's fixed-capacity eviction policy. Entries stay coherent
// by write-through invalidation, so they never expire on their own and the
// policy reads no clock. It is NOT safe for concurrent use: the shard lock
// guards every call.
type lru struct {
	capacity  int
	order     *list.List               // of *lruEntry; front = most recent
	items     map[string]*list.Element // key → its element in order
	evictions uint64                   // entries capacity pressure pushed out
}

type lruEntry struct {
	key string
	val cacheEntry
}

// newLRU returns a policy holding at most capacity entries (New keeps each
// shard's capacity at least 1).
func newLRU(capacity int) *lru {
	return &lru{capacity: capacity, order: list.New(), items: make(map[string]*list.Element, capacity)}
}

// get returns key's entry and whether it is held, marking it most recent.
func (c *lru) get(key string) (cacheEntry, bool) {
	el, ok := c.items[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes key's entry, evicting the least recently used
// one when full.
func (c *lru) put(key string, val cacheEntry) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions++
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val}) // alloccheck: installs follow a miss; warm hits never insert
}

// remove drops key's entry if held. Removal is an invalidation, not an
// eviction, and is not counted.
func (c *lru) remove(key string) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}
