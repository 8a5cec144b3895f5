package kvstore

import (
	"slices"
	"sort"
	"sync"
)

// row holds one row's versions in the order the read rule (§4.1: the
// largest commit timestamp below the snapshot) chooses among them, in one
// slice split at stamped: versions[:stamped] are the stamped versions in
// ascending CommitTS, versions[stamped:] the pending (unstamped) ones, newest
// TS first — usually one or two. A version's CommitTS exceeds its TS, and a
// row's commit timestamps are distinct (one per writing transaction).
type row struct {
	versions []Version
	stamped  int
}

// Region is a contiguous key range [StartKey, EndKey) served by one region
// server. EndKey == "" means unbounded.
type Region struct {
	StartKey string
	EndKey   string

	server *RegionServer

	mu    sync.RWMutex
	rows  map[string]*row
	keys  []string // sorted keys, maintained lazily for scans/splits
	dirty bool     // keys needs re-sorting
}

func newRegion(start, end string) *Region {
	return &Region{StartKey: start, EndKey: end, rows: make(map[string]*row)}
}

// numRows returns the number of rows in the region.
func (r *Region) numRows() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rows)
}

// put inserts a version; reports whether a new row was created.
func (r *Region) put(key string, ts uint64, value []byte) bool {
	val := make([]byte, len(value))
	copy(val, value)
	r.mu.Lock()
	rw, ok := r.rows[key]
	if !ok {
		rw = &row{}
		r.rows[key] = rw
		r.keys = append(r.keys, key)
		r.dirty = true
	}
	rw.insert(Version{TS: ts, Value: val})
	r.mu.Unlock()
	r.server.chargeWrite(key)
	return !ok
}

// insert adds v to the pending part, replacing the version written at the
// same timestamp (a transaction rewriting its own tentative write). The new
// version is stored whole, so the replaced one's CommitTS goes with it: a
// stamp never outlives the bytes it was learned about. A fresh write moves
// only the pending part.
func (rw *row) insert(v Version) {
	if i := rw.locate(v.TS); i >= rw.stamped {
		rw.versions[i] = v
		return
	} else if i >= 0 {
		rw.remove(i)
	}
	i := rw.stamped
	for i < len(rw.versions) && rw.versions[i].TS > v.TS {
		i++
	}
	rw.versions = slices.Insert(rw.versions, i, v)
}

// locate returns the index of the version written at ts, or -1. Only the
// stamped versions committed after ts, and the pending ones, can be it.
func (rw *row) locate(ts uint64) int {
	for i := rw.stampedAfter(ts); i < len(rw.versions); i++ {
		if rw.versions[i].TS == ts {
			return i
		}
	}
	return -1
}

// stampedAfter returns the index of the first stamped version with
// CommitTS > tc (rw.stamped when there is none).
func (rw *row) stampedAfter(tc uint64) int {
	return sort.Search(rw.stamped, func(i int) bool { return rw.versions[i].CommitTS > tc })
}

// remove deletes the version at index i.
func (rw *row) remove(i int) {
	if i < rw.stamped {
		rw.stamped--
	}
	rw.versions = slices.Delete(rw.versions, i, i+1)
}

// stamp records tc on the pending version at index i and moves it to its
// commit-order slot, in place: the pending versions before it shift up one.
func (rw *row) stamp(i int, tc uint64) {
	v := rw.versions[i]
	v.CommitTS = tc
	copy(rw.versions[rw.stamped+1:i+1], rw.versions[rw.stamped:i])
	j := rw.stampedAfter(tc)
	copy(rw.versions[j+1:rw.stamped+1], rw.versions[j:rw.stamped])
	rw.versions[j] = v
	rw.stamped++
}

// appendCandidates appends to dst, newest TS first and up to limit (limit
// <= 0 means all), the only versions a snapshot at before can choose from:
// every pending version with TS < before, and the stamped version with the
// largest CommitTS < before. A stamped version it leaves out is superseded
// there by a stamped one committed later.
func (rw *row) appendCandidates(dst []Version, before uint64, limit int) []Version {
	best := rw.stamped - 1 // the newest stamp is the usual answer
	if best >= 0 && rw.versions[best].CommitTS >= before {
		best = sort.Search(best, func(i int) bool { return rw.versions[i].CommitTS >= before }) - 1
	}
	n := 0 // never reaches a limit <= 0
	for _, v := range rw.versions[rw.stamped:] {
		if v.TS >= before {
			continue
		}
		if best >= 0 && rw.versions[best].TS > v.TS {
			dst, best = append(dst, rw.versions[best]), -1
			if n++; n == limit {
				return dst
			}
		}
		dst = append(dst, v)
		if n++; n == limit {
			return dst
		}
	}
	if best >= 0 {
		dst = append(dst, rw.versions[best])
	}
	return dst
}

// get appends key's candidates for a snapshot at before (appendCandidates)
// to dst.
func (r *Region) get(dst []Version, key string, before uint64, limit int) []Version {
	r.server.chargeRead(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rw, ok := r.rows[key]; ok {
		dst = rw.appendCandidates(dst, before, limit)
	}
	return dst
}

// multiGetInto reads the keys at positions group, all of this region, under
// one lock acquisition: each one's candidates for a snapshot at before
// (appendCandidates) are appended to buf's arena and its span recorded. Cache
// accounting for the whole group costs one server-mutex pass.
func (r *Region) multiGetInto(buf *ReadBuf, group []int, keys []string, before uint64, limit int) {
	r.server.chargeReadBatch(keys, group)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, i := range group {
		lo := len(buf.versions)
		if rw, ok := r.rows[keys[i]]; ok {
			buf.versions = rw.appendCandidates(buf.versions, before, limit)
		}
		buf.spans[i] = span{lo, len(buf.versions)}
	}
}

// getVersion returns the exact version written at ts.
func (r *Region) getVersion(key string, ts uint64) (Version, error) {
	r.server.chargeRead(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rw, ok := r.rows[key]; ok {
		if i := rw.locate(ts); i >= 0 {
			return rw.versions[i], nil
		}
	}
	return Version{}, ErrNoSuchVersion
}

// deleteVersion removes the exact version written at ts.
func (r *Region) deleteVersion(key string, ts uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rw, ok := r.rows[key]; ok {
		if i := rw.locate(ts); i >= 0 {
			rw.remove(i)
		}
	}
}

// contains reports whether key falls in the region's range. Caller holds the
// store's topoMu (a split rewrites EndKey under it).
func (r *Region) contains(key string) bool {
	return key >= r.StartKey && (r.EndKey == "" || key < r.EndKey)
}

// stamp records each stamp's commit timestamp on the pending version it
// names, under one lock hold; a stamp whose version is not pending there
// (stamped already, cleaned up, collected) is dropped.
func (r *Region) stamp(stamps []Stamp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range stamps {
		if rw, ok := r.rows[st.Key]; ok {
			if i := rw.locate(st.WriteTS); i >= rw.stamped {
				rw.stamp(i, st.CommitTS)
			}
		}
	}
}

// sortedKeys returns the region's keys in order. Caller must hold r.mu
// (write lock if dirty).
func (r *Region) sortedKeysLocked() []string {
	if r.dirty {
		sort.Strings(r.keys)
		r.dirty = false
	}
	return r.keys
}

// scan appends the rows in [startKey, endKey) holding a version below
// before, each with its candidates for a snapshot at before.
func (r *Region) scan(out []ScanRow, startKey, endKey string, before uint64, versionsPerRow, limit int) []ScanRow {
	r.mu.Lock()
	keys := r.sortedKeysLocked()
	i := sort.SearchStrings(keys, startKey)
	for ; i < len(keys); i++ {
		key := keys[i]
		if endKey != "" && key >= endKey {
			break
		}
		rw := r.rows[key]
		vs := rw.appendCandidates(nil, before, versionsPerRow)
		if len(vs) == 0 && !slices.ContainsFunc(rw.versions, func(v Version) bool { return v.TS < before }) {
			continue
		}
		out = append(out, ScanRow{Key: key, Versions: vs})
		r.server.chargeRead(key)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	r.mu.Unlock()
	return out
}

// midKey returns the median row key, used as an auto-split point.
func (r *Region) midKey() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := r.sortedKeysLocked()
	if len(keys) < 2 {
		return ""
	}
	return keys[len(keys)/2]
}

// splitAt moves rows with key >= mid into a new region and shrinks the
// receiver to [StartKey, mid). Returns the new upper region.
func (r *Region) splitAt(mid string) *Region {
	r.mu.Lock()
	defer r.mu.Unlock()
	if mid <= r.StartKey || (r.EndKey != "" && mid >= r.EndKey) {
		return nil
	}
	upper := newRegion(mid, r.EndKey)
	keys := r.sortedKeysLocked()
	i := sort.SearchStrings(keys, mid)
	for _, k := range keys[i:] {
		upper.rows[k] = r.rows[k]
		upper.keys = append(upper.keys, k)
		delete(r.rows, k)
	}
	r.keys = keys[:i]
	r.EndKey = mid
	return upper
}
