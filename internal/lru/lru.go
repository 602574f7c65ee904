// Package lru is the one least-recently-used container behind every
// cache in the repo: the kvstore row and block caches, the BFHM bucket
// cache, the planner's statistics cache and the page-token cursor
// cache.
//
// A Cache is a map plus an intrusive recency list, bounded by the sum
// of its entries' sizes. Each owner chooses what a size means (bytes,
// or 1 per entry for a count bound). A Cache has no lock of its own:
// its owner holds the Cache in a field guarded by the owner's mutex and
// calls it only with that mutex held.
//
// The eviction rules, which every owner's simulated costs depend on:
//   - an entry larger than the bound is refused, and nothing is
//     evicted for it;
//   - re-adding a key replaces its value and size and makes it the most
//     recently used entry;
//   - Get makes an entry the most recently used, Peek and Grow do not;
//   - past the bound, least recently used entries go first, the one
//     just grown included;
//   - capacity 0 disables the cache: it drops every entry and admits
//     none.
package lru

import "iter"

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	size       uint64
	val        V
}

// Cache is a size-bounded LRU map. Create one with New; the zero value
// is not usable.
type Cache[K comparable, V any] struct {
	root      node[K, V] // root.next is the most recently used entry, root.prev the least
	items     map[K]*node[K, V]
	size      uint64
	capacity  uint64
	evictions uint64
	onEvict   func(K, V)
}

// New returns an empty cache bounded at capacity. onEvict, if not nil,
// is called with every entry the bound drops (not with those Remove
// takes out or an Add replaces), under whatever lock the caller holds.
func New[K comparable, V any](capacity uint64, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{items: map[K]*node[K, V]{}, capacity: capacity, onEvict: onEvict}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k, or nil, and makes the entry the
// most recently used. The pointer stays valid until the entry leaves
// the cache; the caller may update the value through it.
func (c *Cache[K, V]) Get(k K) *V {
	n := c.items[k]
	if n == nil {
		return nil
	}
	c.unlink(n)
	c.pushFront(n)
	return &n.val
}

// Peek is Get without the change of recency.
func (c *Cache[K, V]) Peek(k K) *V {
	if n := c.items[k]; n != nil {
		return &n.val
	}
	return nil
}

// Add stores v of the given size under k as the most recently used
// entry, then evicts down to the bound. An entry larger than the bound
// is refused: Add changes nothing, not even a value already stored
// under k.
func (c *Cache[K, V]) Add(k K, v V, size uint64) {
	if c.capacity == 0 || size > c.capacity {
		return
	}
	if n := c.items[k]; n != nil {
		c.size += size - n.size
		n.val, n.size = v, size
		c.unlink(n)
		c.pushFront(n)
	} else {
		n := &node[K, V]{key: k, size: size, val: v}
		c.items[k] = n
		c.size += size
		c.pushFront(n)
	}
	c.evict()
}

// Grow changes the size of the entry under k by delta without touching
// its recency, then evicts down to the bound, which may drop the entry
// itself.
func (c *Cache[K, V]) Grow(k K, delta int64) {
	if n := c.items[k]; n != nil {
		n.size += uint64(delta)
		c.size += uint64(delta)
		c.evict()
	}
}

// Remove takes the entry under k out of the cache and returns its value.
func (c *Cache[K, V]) Remove(k K) (v V, ok bool) {
	n := c.items[k]
	if n == nil {
		return v, false
	}
	c.drop(n)
	return n.val, true
}

// SetCap changes the bound and evicts down to it.
func (c *Cache[K, V]) SetCap(capacity uint64) {
	c.capacity = capacity
	c.evict()
}

// All yields every entry, most recently used first. The cache must not
// change during the iteration.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for n := c.root.next; n != &c.root; n = n.next {
			if !yield(n.key, n.val) {
				return
			}
		}
	}
}

// Len is the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Size is the sum of the entries' sizes.
func (c *Cache[K, V]) Size() uint64 { return c.size }

// Cap is the bound; 0 means the cache is disabled.
func (c *Cache[K, V]) Cap() uint64 { return c.capacity }

// Evictions counts the entries the bound has dropped.
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }

func (c *Cache[K, V]) evict() {
	for c.root.prev != &c.root && (c.size > c.capacity || c.capacity == 0) {
		n := c.root.prev
		c.drop(n)
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(n.key, n.val)
		}
	}
}

func (c *Cache[K, V]) drop(n *node[K, V]) {
	c.unlink(n)
	n.prev, n.next = nil, nil
	delete(c.items, n.key)
	c.size -= n.size
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}
