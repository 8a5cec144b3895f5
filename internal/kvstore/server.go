package kvstore

import (
	"container/list"
	"sync"
	"time"
)

// RegionServer models one data server: it owns a block cache and charges
// operation latencies. All regions assigned to it share the cache, as
// HBase's block cache is process-wide.
type RegionServer struct {
	ID int

	latency LatencyModel

	mu     sync.Mutex
	cache  *lruCache // nil when cache modelling is off
	reads  int64
	writes int64
	hits   int64
	misses int64
}

// NewModelServer returns a stand-alone RegionServer used purely for
// block-cache modelling (no regions, no latency charging). The cluster
// simulator creates one per modelled data server and charges virtual time
// itself based on CacheTouch results.
func NewModelServer(id, cacheRows int) *RegionServer {
	return newRegionServer(id, cacheRows, LatencyModel{})
}

func newRegionServer(id, cacheRows int, latency LatencyModel) *RegionServer {
	rs := &RegionServer{ID: id, latency: latency}
	if cacheRows > 0 {
		rs.cache = newLRUCache(cacheRows)
	}
	return rs
}

// chargeRead accounts one read, simulating cache behaviour and latency.
func (rs *RegionServer) chargeRead(key string) {
	var delay time.Duration
	rs.mu.Lock()
	rs.reads++
	if rs.cache == nil {
		rs.hits++
		delay = rs.latency.ReadCache
	} else if rs.cache.touch(key) {
		rs.hits++
		delay = rs.latency.ReadCache
	} else {
		rs.misses++
		rs.cache.add(key)
		delay = rs.latency.ReadDisk
	}
	rs.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
}

// chargeReadBatch accounts a batched read of the keys at positions group
// under one mutex pass, simulating each key's cache behaviour. The modelled
// latency is the sum of the per-key costs — a multiget still pays every disk
// seek — but it is charged as one sleep, and the cache bookkeeping costs one
// lock acquisition instead of one per key.
func (rs *RegionServer) chargeReadBatch(keys []string, group []int) {
	var delay time.Duration
	rs.mu.Lock()
	for _, i := range group {
		key := keys[i]
		rs.reads++
		if rs.cache == nil {
			rs.hits++
			delay += rs.latency.ReadCache
		} else if rs.cache.touch(key) {
			rs.hits++
			delay += rs.latency.ReadCache
		} else {
			rs.misses++
			rs.cache.add(key)
			delay += rs.latency.ReadDisk
		}
	}
	rs.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
}

// chargeWrite accounts one write. Writes go to the memstore, so the row
// becomes cache-resident.
func (rs *RegionServer) chargeWrite(key string) {
	rs.mu.Lock()
	rs.writes++
	if rs.cache != nil {
		rs.cache.add(key)
	}
	delay := rs.latency.Write
	rs.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
}

// CacheContains reports whether the key is currently cache-resident
// (false when cache modelling is off). Exposed for the simulator, which
// charges virtual rather than wall-clock time.
func (rs *RegionServer) CacheContains(key string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.cache == nil {
		return true
	}
	return rs.cache.contains(key)
}

// CacheTouch simulates a read's cache effect and reports whether it hit.
func (rs *RegionServer) CacheTouch(key string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.reads++
	if rs.cache == nil {
		rs.hits++
		return true
	}
	if rs.cache.touch(key) {
		rs.hits++
		return true
	}
	rs.misses++
	rs.cache.add(key)
	return false
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
