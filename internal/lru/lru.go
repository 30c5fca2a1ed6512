// Package lru implements a small fixed-capacity LRU cache: the eviction
// policy under each shard of the decoded-value read cache (internal/objcache),
// which keeps entries coherent by write-through invalidation — so entries
// never expire on their own, and the package reads no clock.
package lru

import (
	"container/list"
	"fmt"
)

// Cache is a fixed-capacity LRU.
//
// It is NOT safe for concurrent use: the owner serializes access (objcache
// holds its shard lock around every call).
type Cache[K comparable, V any] struct {
	capacity int

	order *list.List // front = most recent
	items map[K]*list.Element

	evictions uint64
}

type entry[K comparable, V any] struct {
	key   K
	value V
}

// New returns a cache holding at most capacity entries. It panics on
// non-positive capacity — an accidental zero capacity would silently disable
// the optimization.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("lru: capacity must be positive, got %d", capacity))
	}
	return &Cache[K, V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and whether it was present.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).value, true
}

// Put inserts or refreshes a value, evicting the least recently used entry
// when full.
func (c *Cache[K, V]) Put(key K, value V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).value = value
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*entry[K, V]).key)
			c.evictions++
		}
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, value: value})
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Cap returns the configured capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

// Evictions returns how many entries capacity pressure has pushed out.
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }

// Remove deletes the entry for key if present, reporting whether it was.
// Removal is an invalidation, not an eviction, and is not counted.
func (c *Cache[K, V]) Remove(key K) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}
