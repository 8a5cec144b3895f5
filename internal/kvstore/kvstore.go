// Package kvstore implements the multi-version, range-partitioned key-value
// store the transactions run against. It stands in for HBase (§6): a table
// is split into regions of consecutive rows, each region is served by one
// region server, cells carry multiple timestamped versions, and reads/writes
// are get/put requests addressed by (key, timestamp).
//
// Each server counts its reads against a per-server block cache (CacheRows),
// the one aspect of the paper's testbed the evaluation depends on: the 100 GB
// table does not fit in the 3 GB data-server memory, so a uniformly random
// read misses the cache and pays a disk seek (38.8 ms in §6.2), while skewed
// (zipfian) traffic is mostly served from memory — the reason Figure 7
// outperforms Figure 6.
package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Version is one timestamped value of a cell. In the lock-free scheme the
// timestamp is the writing transaction's start timestamp; visibility is
// decided by the reader from the writer's commit status (§2.2).
type Version struct {
	TS    uint64
	Value []byte
	// CommitTS is the writer's commit timestamp once somebody who learned
	// it has stamped it here (StampCommits) — the paper's "written back
	// into the database" option. 0 = not known here; ask.
	CommitTS uint64
}

// Config parameterizes a store.
type Config struct {
	// Servers is the number of region servers (paper: 25).
	Servers int
	// SplitKeys are the initial region boundaries: n keys create n+1
	// regions assigned round-robin to servers.
	SplitKeys []string
	// MaxRegionRows auto-splits a region that grows beyond this many
	// rows. Zero disables auto-splitting.
	MaxRegionRows int
	// CacheRows is each server's block-cache capacity in rows. Zero
	// disables cache modelling (every read is a hit).
	CacheRows int
}

// Errors returned by the store.
var (
	ErrNoSuchVersion = errors.New("kvstore: no such version")
)

// Store is the multi-version key-value store.
type Store struct {
	cfg     Config
	servers []*RegionServer

	topoMu  sync.RWMutex
	regions []*Region // sorted by StartKey
}

// New creates a store with the configured topology.
func New(cfg Config) *Store {
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	s := &Store{cfg: cfg}
	for i := 0; i < cfg.Servers; i++ {
		s.servers = append(s.servers, newRegionServer(i, cfg.CacheRows))
	}
	splits := append([]string(nil), cfg.SplitKeys...)
	sort.Strings(splits)
	start := ""
	for i := 0; i <= len(splits); i++ {
		end := "" // empty end = +inf
		if i < len(splits) {
			end = splits[i]
		}
		r := newRegion(start, end)
		r.server = s.servers[i%len(s.servers)]
		s.regions = append(s.regions, r)
		start = end
	}
	return s
}

// NumRegions returns the current region count.
func (s *Store) NumRegions() int {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return len(s.regions)
}

// Servers exposes the region servers (for metrics inspection).
func (s *Store) Servers() []*RegionServer { return s.servers }

// regionFor finds the last region whose StartKey <= key. Caller holds
// topoMu across its call into the region too: a split in between would send
// the call to the lower half, where the row no longer is.
func (s *Store) regionFor(key string) *Region {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].StartKey > key
	}) - 1
	if i < 0 {
		i = 0
	}
	return s.regions[i]
}

// Put writes a version of a cell. The topology read lock is released before
// split, which takes it exclusively.
func (s *Store) Put(key string, ts uint64, value []byte) {
	s.topoMu.RLock()
	r := s.regionFor(key)
	grew := r.put(key, ts, value)
	s.topoMu.RUnlock()
	if grew && s.cfg.MaxRegionRows > 0 && r.numRows() > s.cfg.MaxRegionRows {
		s.split(r)
	}
}

// Get returns key's candidates for a snapshot at before, newest TS first, up
// to limit (limit <= 0 means all): every unstamped version written before
// before, and of the stamped versions only the one with the largest CommitTS
// below before — §4.1's rule can choose no other.
func (s *Store) Get(key string, before uint64, limit int) []Version {
	return s.GetInto(nil, key, before, limit)
}

// GetInto is Get appending the candidates to dst: with a buffer the caller
// owns (a stack array — a row has few candidates however long its chain) a
// read allocates nothing.
func (s *Store) GetInto(dst []Version, key string, before uint64, limit int) []Version {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.regionFor(key).get(dst, key, before, limit)
}

// ReadBuf is the reusable result of MultiGetInto: every key's candidates
// (Get) back to back in one arena, and a span per key. The zero value is
// ready to use. MultiGetInto overwrites the buffer it is given: slices
// obtained from Versions before that call no longer describe its result. A
// ReadBuf must not be used by two goroutines at once.
type ReadBuf struct {
	versions []Version
	spans    []span    // per key: its versions' place in the arena
	regions  []*Region // per key: the owning region, nil once it has been read
	group    []int     // positions of the keys of the region being read
}

type span struct{ lo, hi int }

// Versions returns the candidates MultiGetInto found for keys[i], newest TS
// first; empty when the key has none.
func (b *ReadBuf) Versions(i int) []Version {
	sp := b.spans[i]
	return b.versions[sp.lo:sp.hi:sp.hi]
}

// MultiGetInto is the batched form of Get: afterwards buf.Versions(i) holds
// keys[i]'s candidates for a snapshot at before, newest TS first, up to
// limit each (limit <= 0 means all). Keys are grouped by owning region so
// each covered region's lock — and its server's cache-accounting mutex — is
// taken once for the whole group instead of once per key. With a buffer that
// has seen a read of this size before, it allocates nothing.
func (s *Store) MultiGetInto(buf *ReadBuf, keys []string, before uint64, limit int) {
	buf.versions = buf.versions[:0]
	buf.spans = slices.Grow(buf.spans[:0], len(keys))[:len(keys)]
	buf.regions = slices.Grow(buf.regions[:0], len(keys))[:len(keys)]
	// Locate every key's region, and read them, under one topology snapshot.
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	for i, key := range keys {
		buf.regions[i] = s.regionFor(key)
	}
	for i, r := range buf.regions {
		if r == nil {
			continue // read with an earlier key's group
		}
		group := buf.group[:0]
		for j := i; j < len(keys); j++ {
			if buf.regions[j] == r {
				group = append(group, j)
				buf.regions[j] = nil
			}
		}
		buf.group = group
		r.multiGetInto(buf, group, keys, before, limit)
	}
}

// MultiGet is MultiGetInto with a result of its own: result[i] holds
// keys[i]'s versions, nil when it has none.
func (s *Store) MultiGet(keys []string, before uint64, limit int) [][]Version {
	var buf ReadBuf
	s.MultiGetInto(&buf, keys, before, limit)
	out := make([][]Version, len(keys))
	for i := range keys {
		if vs := buf.Versions(i); len(vs) > 0 {
			out[i] = vs
		}
	}
	return out
}

// GetVersion returns the exact version of key written at ts.
func (s *Store) GetVersion(key string, ts uint64) (Version, error) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.regionFor(key).getVersion(key, ts)
}

// DeleteVersion removes the exact version of key written at ts (abort
// cleanup). Removing a missing version is not an error.
func (s *Store) DeleteVersion(key string, ts uint64) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	s.regionFor(key).deleteVersion(key, ts)
}

// Stamp names the version of Key written at WriteTS and its writer's commit
// timestamp.
type Stamp struct {
	Key               string
	WriteTS, CommitTS uint64
}

// StampCommits records commit timestamps on the versions themselves, so
// every later Get, MultiGetInto, Scan and collector pass finds them there.
// Only a fact may be stamped: a committed transaction's commit timestamp
// never changes, so whoever learns it — a reader from the status oracle, a
// committer from its own ack — may record it for everyone. A stamp for a
// version that is not there (aborted and cleaned up, or collected) is
// dropped. One topology snapshot serves the call, and each run of
// consecutive same-region keys costs one region-lock hold.
func (s *Store) StampCommits(stamps []Stamp) {
	if len(stamps) == 0 {
		return
	}
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	for len(stamps) > 0 {
		r := s.regionFor(stamps[0].Key)
		n := 1
		for n < len(stamps) && r.contains(stamps[n].Key) {
			n++
		}
		r.stamp(stamps[:n])
		stamps = stamps[n:]
	}
}

// Scan returns, for each row in [startKey, endKey) holding at least one
// version written below before, the row's candidates for a snapshot at
// before (Get; up to versionsPerRow, possibly none). Rows arrive in key
// order, at most limit rows (limit <= 0 means all). endKey == "" means +inf.
func (s *Store) Scan(startKey, endKey string, before uint64, versionsPerRow, limit int) []ScanRow {
	var out []ScanRow
	s.topoMu.RLock()
	regions := append([]*Region(nil), s.regions...)
	s.topoMu.RUnlock()
	for _, r := range regions {
		if endKey != "" && r.StartKey >= endKey {
			break
		}
		if r.EndKey != "" && r.EndKey <= startKey {
			continue
		}
		out = r.scan(out, startKey, endKey, before, versionsPerRow, limit)
		if limit > 0 && len(out) >= limit {
			out = out[:limit]
			break
		}
	}
	return out
}

// ScanRow is one row of a scan result.
type ScanRow struct {
	Key      string
	Versions []Version
}

// split divides a region at its median row and assigns the upper half to
// the least-loaded server.
func (s *Store) split(r *Region) {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	mid := r.midKey()
	if mid == "" || mid == r.StartKey {
		return // nothing to split
	}
	upper := r.splitAt(mid)
	if upper == nil {
		return
	}
	// Place the new region on the server currently holding the fewest
	// regions.
	counts := make(map[*RegionServer]int)
	for _, reg := range s.regions {
		counts[reg.server]++
	}
	best := s.servers[0]
	for _, sv := range s.servers {
		if counts[sv] < counts[best] {
			best = sv
		}
	}
	upper.server = best
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].StartKey >= upper.StartKey
	})
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = upper
}

// Stats aggregates per-server counters.
type Stats struct {
	Reads     int64
	Writes    int64
	CacheHits int64
	CacheMiss int64
}

// Stats sums the counters of all region servers.
func (s *Store) Stats() Stats {
	var t Stats
	for _, sv := range s.servers {
		st := sv.stats()
		t.Reads += st.Reads
		t.Writes += st.Writes
		t.CacheHits += st.CacheHits
		t.CacheMiss += st.CacheMiss
	}
	return t
}

// String describes the topology.
func (s *Store) String() string {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return fmt.Sprintf("kvstore{servers=%d regions=%d}", len(s.servers), len(s.regions))
}
