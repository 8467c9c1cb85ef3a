// Package routecache implements the serving-path cache in front of the
// route generation component: a sharded, bounded LRU keyed by origin,
// destination and departure-time slot. Repeat OD pairs within the same time
// slot skip Dijkstra, Yen's k-shortest and the popular-route miners
// entirely. Entries are invalidated when a new verified truth lands for
// their key, keeping the cache consistent with the truth database's view of
// an OD pair (see DESIGN.md §6).
//
// The cache is safe for concurrent use: keys hash to independent shards,
// each with its own mutex, so parallel request handlers contend only when
// they collide on a shard. Counters are maintained with atomics and exposed
// via Stats for the /v1/health endpoint.
package routecache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies one cached entry: an OD pair plus a departure-time slot
// (the same quantization the truth database uses for its time tags).
type Key struct {
	From, To int64
	Slot     int
}

// hash mixes the key fields into a shard index seed (splitmix-style).
//
//cplint:hotpath
func (k Key) hash() uint64 {
	h := uint64(k.From)*0x9E3779B97F4A7C15 + uint64(k.To)*0xC2B2AE3D27D4EB4F + uint64(k.Slot)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Size          int
	Capacity      int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

const defaultShards = 16

// Cache is a sharded, bounded LRU from Key to V. A nil *Cache is a valid,
// permanently empty cache (every lookup misses, every store is dropped), so
// callers can disable caching without branching.
type Cache[V any] struct {
	shards [defaultShards]shard[V]

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

type shard[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[Key]*list.Element
}

type entry[V any] struct {
	key Key
	val V
}

// New creates a cache bounded to roughly capacity entries (rounded up to a
// multiple of the shard count). capacity <= 0 returns nil: the disabled
// cache.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + defaultShards - 1) / defaultShards
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i] = shard[V]{
			cap: perShard,
			ll:  list.New(),
			m:   make(map[Key]*list.Element, perShard),
		}
	}
	return c
}

//cplint:hotpath
func (c *Cache[V]) shard(k Key) *shard[V] {
	return &c.shards[k.hash()%defaultShards]
}

// Get returns the cached value for k and marks it most recently used.
// Cache hits sit on every recommendation request, so the lookup is part of
// the allocation-free serving budget.
//
//cplint:hotpath
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	sh := c.shard(k)
	sh.mu.Lock()
	el, ok := sh.m[k]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return zero, false
	}
	sh.ll.MoveToFront(el)
	v := el.Value.(*entry[V]).val
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores v under k, evicting the shard's least recently used entry when
// the shard is full. Storing an existing key refreshes its value and
// recency.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[k]; ok {
		el.Value.(*entry[V]).val = v
		sh.ll.MoveToFront(el)
		return
	}
	if sh.ll.Len() >= sh.cap {
		oldest := sh.ll.Back()
		if oldest != nil {
			sh.ll.Remove(oldest)
			delete(sh.m, oldest.Value.(*entry[V]).key)
			c.evictions.Add(1)
		}
	}
	sh.m[k] = sh.ll.PushFront(&entry[V]{key: k, val: v})
}

// Invalidate drops the entry for k, if present. It returns whether an entry
// was dropped.
func (c *Cache[V]) Invalidate(k Key) bool {
	if c == nil {
		return false
	}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[k]
	if !ok {
		return false
	}
	sh.ll.Remove(el)
	delete(sh.m, k)
	c.invalidations.Add(1)
	return true
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters. A nil cache reports all zeros.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Size:          c.Len(),
		Capacity:      c.shards[0].cap * defaultShards,
	}
}
