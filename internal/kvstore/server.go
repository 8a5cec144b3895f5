package kvstore

import (
	"container/list"
	"sync"
)

// RegionServer models one data server: it owns a block cache and counts
// reads, writes, hits and misses. All regions assigned to it share the cache,
// as HBase's block cache is process-wide.
type RegionServer struct {
	ID int

	mu     sync.Mutex
	cache  *lruCache // nil when cache modelling is off
	reads  int64
	writes int64
	hits   int64
	misses int64
}

func newRegionServer(id, cacheRows int) *RegionServer {
	rs := &RegionServer{ID: id}
	if cacheRows > 0 {
		rs.cache = newLRUCache(cacheRows)
	}
	return rs
}

// chargeRead accounts one read against the cache.
func (rs *RegionServer) chargeRead(key string) {
	rs.mu.Lock()
	rs.touchLocked(key)
	rs.mu.Unlock()
}

// chargeReadBatch accounts a batched read of the keys at positions group
// under one mutex pass: the cache bookkeeping costs one lock acquisition
// instead of one per key.
func (rs *RegionServer) chargeReadBatch(keys []string, group []int) {
	rs.mu.Lock()
	for _, i := range group {
		rs.touchLocked(keys[i])
	}
	rs.mu.Unlock()
}

// touchLocked accounts one read of key: a hit when cache modelling is off or
// the row is resident, otherwise a miss that makes it resident.
func (rs *RegionServer) touchLocked(key string) {
	rs.reads++
	if rs.cache == nil || rs.cache.touch(key) {
		rs.hits++
		return
	}
	rs.misses++
	rs.cache.add(key)
}

// chargeWrite accounts one write. Writes go to the memstore, so the row
// becomes cache-resident.
func (rs *RegionServer) chargeWrite(key string) {
	rs.mu.Lock()
	rs.writes++
	if rs.cache != nil {
		rs.cache.add(key)
	}
	rs.mu.Unlock()
}

func (rs *RegionServer) stats() Stats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return Stats{Reads: rs.reads, Writes: rs.writes, CacheHits: rs.hits, CacheMiss: rs.misses}
}

// lruCache is a fixed-capacity LRU set of row keys modelling the block
// cache at row granularity.
type lruCache struct {
	capacity int
	ll       *list.List // front = most recent
	items    map[string]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// touch marks key as used; reports whether it was present.
func (c *lruCache) touch(key string) bool {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	return false
}

// contains reports presence without changing recency.
func (c *lruCache) contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// add inserts key as most recent, evicting the least recent beyond
// capacity.
func (c *lruCache) add(key string) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(key)
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(string))
	}
}
