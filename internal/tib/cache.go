package tib

import (
	"container/list"
	"sync"
	"unsafe"

	"pathdump/internal/cherrypick"
	"pathdump/internal/types"
)

// Cache is the trajectory cache of Figure 2: an LRU memoising
// ⟨srcIP, link IDs⟩ → end-to-end path so that the construction sub-module
// only consults the topology on a miss; the key holds the header packed,
// as the trajectory memory does, so a lookup builds nothing. Methods are
// safe for concurrent use: Get reorders the LRU list, so even lookups
// mutate shared state.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	m   map[cacheKey]*list.Element

	hits, misses uint64
}

type cacheKey struct {
	src types.IP
	hdr cherrypick.Packed
}

type cacheVal struct {
	key  cacheKey
	path types.Path
}

// CacheEntryBytes is what one cached trajectory occupies besides its
// path's hops: the value, the list element holding it and the map entry
// (key, element pointer, control byte); the map's growth slack comes on top.
const CacheEntryBytes = int(unsafe.Sizeof(cacheVal{})+unsafe.Sizeof(list.Element{})+unsafe.Sizeof(cacheKey{})) + 8 + 1

// NewCache builds an LRU trajectory cache with the given capacity
// (0 selects 4096 entries).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// Len returns the number of cached trajectories.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Get looks up the path for ⟨src, header⟩.
func (c *Cache) Get(src types.IP, hdr cherrypick.Packed) (types.Path, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[cacheKey{src, hdr}]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheVal).path, true
	}
	c.misses++
	return nil, false
}

// Put inserts a constructed path, evicting the least recently used entry
// when full.
func (c *Cache) Put(src types.IP, hdr cherrypick.Packed, p types.Path) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{src, hdr}
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheVal).path = p
		return
	}
	el := c.ll.PushFront(&cacheVal{key: k, path: p})
	c.m[k] = el
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheVal).key)
	}
}

// Stats returns the lookups served and missed so far.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HitRate returns the fraction of lookups served from the cache.
func (c *Cache) HitRate() float64 {
	hits, misses := c.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
