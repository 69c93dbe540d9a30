// Package serve turns the analysis substrate into a long-running HTTP
// service: mirad loads one corpus snapshot at startup, pre-warms the
// whole-corpus profile, and answers concurrent profile/cohort/experiment
// queries from a sharded LRU of rendered responses keyed by the
// predicate's canonical form, with singleflight collapsing so a stampede
// of identical queries computes each cohort exactly once (DESIGN.md §15).
package serve

import (
	"container/list"
	"sync"
)

// Source labels where a cache lookup's bytes came from.
type Source uint8

const (
	// Miss: this call ran the compute function.
	Miss Source = iota
	// Hit: the bytes were already resident in the LRU.
	Hit
	// Collapsed: an identical query was already computing; this call
	// waited for its result instead of recomputing (singleflight).
	Collapsed
)

func (s Source) String() string {
	switch s {
	case Hit:
		return "hit"
	case Collapsed:
		return "collapsed"
	}
	return "miss"
}

// Cache is a sharded LRU of rendered response bodies keyed by canonical
// predicate strings, with per-key singleflight. All methods are safe for
// concurrent use; contention distributes across shards by key hash.
type Cache struct {
	shards   []cacheShard
	perShard int
}

type cacheShard struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight

	hits, misses, collapsed, evictions uint64
	bytes                              int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// NewCache builds a cache holding at most capacity entries spread over
// nShards shards (both floored to sane minimums). Capacity bounds entry
// count, not bytes: profiles for distinct cohorts have near-identical
// rendered size, so a count bound is a byte bound in practice.
func NewCache(capacity, nShards int) *Cache {
	if nShards < 1 {
		nShards = 1
	}
	if capacity < nShards {
		capacity = nShards
	}
	c := &Cache{
		shards:   make([]cacheShard, nShards),
		perShard: (capacity + nShards - 1) / nShards,
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].inflight = make(map[string]*flight)
	}
	return c
}

// fnv1a is the key→shard hash (FNV-1a 32-bit).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[fnv1a(key)%uint32(len(c.shards))]
}

// GetOrCompute returns the cached body for key, or runs compute to
// produce it. Concurrent calls for the same key collapse onto one
// compute (the others block until it finishes and share its result).
// Errors are returned to every collapsed caller but never cached, so a
// transient failure does not poison the key.
func (c *Cache) GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, Source, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.ll.MoveToFront(el)
		sh.hits++
		body := el.Value.(*cacheEntry).body
		sh.mu.Unlock()
		return body, Hit, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.collapsed++
		sh.mu.Unlock()
		<-fl.done
		return fl.body, Collapsed, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.misses++
	sh.mu.Unlock()

	fl.body, fl.err = compute()
	close(fl.done)

	sh.mu.Lock()
	delete(sh.inflight, key)
	if fl.err == nil {
		sh.insert(key, fl.body, c.perShard)
	}
	sh.mu.Unlock()
	return fl.body, Miss, fl.err
}

// insert adds (or refreshes) an entry and evicts from the LRU tail past
// capacity. Called with sh.mu held.
func (sh *cacheShard) insert(key string, body []byte, capacity int) {
	if el, ok := sh.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		sh.bytes += int64(len(body)) - int64(len(ent.body))
		ent.body = body
		sh.ll.MoveToFront(el)
		return
	}
	sh.entries[key] = sh.ll.PushFront(&cacheEntry{key: key, body: body})
	sh.bytes += int64(len(body))
	for sh.ll.Len() > capacity {
		tail := sh.ll.Back()
		ent := tail.Value.(*cacheEntry)
		sh.ll.Remove(tail)
		delete(sh.entries, ent.key)
		sh.bytes -= int64(len(ent.body))
		sh.evictions++
	}
}

// Reset drops every resident entry; counters are preserved. A compute
// in flight across the Reset still inserts its result when it finishes.
func (c *Cache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.ll.Init()
		sh.entries = make(map[string]*list.Element)
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// CacheStats is a point-in-time aggregate across shards.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Collapsed uint64 `json:"collapsed"`
	Evictions uint64 `json:"evictions"`
}

// Stats sums the shard counters.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Capacity: c.perShard * len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += sh.ll.Len()
		st.Bytes += sh.bytes
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Collapsed += sh.collapsed
		st.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return st
}
