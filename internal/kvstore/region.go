package kvstore

import (
	"sort"
	"sync"
)

// row holds the versions of one row, newest first.
type row struct {
	versions []Version // sorted by TS descending
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

// insert places v in descending-timestamp order, replacing an equal
// timestamp (a transaction rewriting its own tentative write). The new
// version is stored whole, so the replaced one's CommitTS goes with it: a
// stamp never outlives the bytes it was learned about.
func (rw *row) insert(v Version) {
	i := sort.Search(len(rw.versions), func(i int) bool {
		return rw.versions[i].TS <= v.TS
	})
	if i < len(rw.versions) && rw.versions[i].TS == v.TS {
		rw.versions[i] = v
		return
	}
	rw.versions = append(rw.versions, Version{})
	copy(rw.versions[i+1:], rw.versions[i:])
	rw.versions[i] = v
}

// appendBelow appends the row's versions with TS < before, newest first, up
// to limit (limit <= 0 means all), to dst.
func (rw *row) appendBelow(dst []Version, before uint64, limit int) []Version {
	n := 0
	for _, v := range rw.versions {
		if v.TS >= before {
			continue
		}
		dst = append(dst, v)
		if n++; n == limit {
			break
		}
	}
	return dst
}

// get appends up to limit versions of key with TS < before, newest first,
// to dst.
func (r *Region) get(dst []Version, key string, before uint64, limit int) []Version {
	r.server.chargeRead(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rw, ok := r.rows[key]; ok {
		dst = rw.appendBelow(dst, before, limit)
	}
	return dst
}

// multiGetInto reads the keys at positions group, all of this region, under
// one lock acquisition: each one's versions with TS < before, newest first,
// up to limit, are appended to buf's arena and its span recorded. Cache
// accounting for the whole group costs one server-mutex pass.
func (r *Region) multiGetInto(buf *ReadBuf, group []int, keys []string, before uint64, limit int) {
	r.server.chargeReadBatch(keys, group)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, i := range group {
		lo := len(buf.versions)
		if rw, ok := r.rows[keys[i]]; ok {
			buf.versions = rw.appendBelow(buf.versions, before, limit)
		}
		buf.spans[i] = span{lo, len(buf.versions)}
	}
}

// find returns the index of the version written at ts, or -1.
func (rw *row) find(ts uint64) int {
	for i := range rw.versions {
		if rw.versions[i].TS <= ts {
			if rw.versions[i].TS == ts {
				return i
			}
			break
		}
	}
	return -1
}

// getVersion returns the exact version written at ts.
func (r *Region) getVersion(key string, ts uint64) (Version, error) {
	r.server.chargeRead(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rw, ok := r.rows[key]; ok {
		if i := rw.find(ts); i >= 0 {
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
		if i := rw.find(ts); i >= 0 {
			rw.versions = append(rw.versions[:i], rw.versions[i+1:]...)
		}
	}
}

// contains reports whether key falls in the region's range. Caller holds the
// store's topoMu (a split rewrites EndKey under it).
func (r *Region) contains(key string) bool {
	return key >= r.StartKey && (r.EndKey == "" || key < r.EndKey)
}

// stamp records each stamp's commit timestamp on the version it names, under
// one lock hold; a stamp whose version is not there is dropped.
func (r *Region) stamp(stamps []Stamp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range stamps {
		if rw, ok := r.rows[st.Key]; ok {
			if i := rw.find(st.WriteTS); i >= 0 {
				rw.versions[i].CommitTS = st.CommitTS
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

// scan appends rows in [startKey, endKey) with versions below before.
func (r *Region) scan(out []ScanRow, startKey, endKey string, before uint64, versionsPerRow, limit int) []ScanRow {
	r.mu.Lock()
	keys := r.sortedKeysLocked()
	i := sort.SearchStrings(keys, startKey)
	for ; i < len(keys); i++ {
		key := keys[i]
		if endKey != "" && key >= endKey {
			break
		}
		vs := r.rows[key].appendBelow(nil, before, versionsPerRow)
		if len(vs) == 0 {
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
