// Package kvstore implements the multi-version key-value store the
// transactions run against. It stands in for HBase (§6): cells carry
// multiple timestamped versions, and reads/writes are get/put requests
// addressed by (key, timestamp). The store is one map of rows under one
// read-write lock.
package kvstore

import (
	"errors"
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

// Config has no fields: the store has nothing to tune. It stays because the
// benchmark module, which is frozen, passes kvstore.Config{}.
type Config struct{}

// Errors returned by the store.
var (
	ErrNoSuchVersion = errors.New("kvstore: no such version")
)

// Store is the multi-version key-value store.
type Store struct {
	mu    sync.RWMutex
	rows  map[string]*row
	keys  []string // sorted keys, maintained lazily for scans
	dirty bool     // keys needs re-sorting
}

// New creates an empty store.
func New(Config) *Store {
	return &Store{rows: make(map[string]*row)}
}

// Put writes a version of a cell.
func (s *Store) Put(key string, ts uint64, value []byte) {
	val := make([]byte, len(value))
	copy(val, value)
	s.mu.Lock()
	rw, ok := s.rows[key]
	if !ok {
		rw = &row{}
		s.rows[key] = rw
		s.keys = append(s.keys, key)
		s.dirty = true
	}
	rw.insert(Version{TS: ts, Value: val})
	s.mu.Unlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rw, ok := s.rows[key]; ok {
		dst = rw.appendCandidates(dst, before, limit)
	}
	return dst
}

// ReadBuf is the reusable result of MultiGetInto: every key's candidates
// (Get) back to back in one arena, and a span per key. The zero value is
// ready to use. MultiGetInto overwrites the buffer it is given: slices
// obtained from Versions before that call no longer describe its result. A
// ReadBuf must not be used by two goroutines at once.
type ReadBuf struct {
	versions []Version
	spans    []span // per key: its versions' place in the arena
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
// limit each (limit <= 0 means all). Every key is read under one read-lock
// hold. With a buffer that has seen a read of this size before, it
// allocates nothing.
func (s *Store) MultiGetInto(buf *ReadBuf, keys []string, before uint64, limit int) {
	buf.versions = buf.versions[:0]
	buf.spans = slices.Grow(buf.spans[:0], len(keys))[:len(keys)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, key := range keys {
		lo := len(buf.versions)
		if rw, ok := s.rows[key]; ok {
			buf.versions = rw.appendCandidates(buf.versions, before, limit)
		}
		buf.spans[i] = span{lo, len(buf.versions)}
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rw, ok := s.rows[key]; ok {
		if i := rw.locate(ts); i >= 0 {
			return rw.versions[i], nil
		}
	}
	return Version{}, ErrNoSuchVersion
}

// DeleteVersion removes the exact version of key written at ts (abort
// cleanup). Removing a missing version is not an error.
func (s *Store) DeleteVersion(key string, ts uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rw, ok := s.rows[key]; ok {
		if i := rw.locate(ts); i >= 0 {
			rw.remove(i)
		}
	}
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
// dropped, as is one for a version that is stamped already. The whole call
// is one write-lock hold.
func (s *Store) StampCommits(stamps []Stamp) {
	if len(stamps) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range stamps {
		if rw, ok := s.rows[st.Key]; ok {
			if i := rw.locate(st.WriteTS); i >= rw.stamped {
				rw.stamp(i, st.CommitTS)
			}
		}
	}
}

// Scan returns, for each row in [startKey, endKey) holding at least one
// version written below before, the row's candidates for a snapshot at
// before (Get; up to versionsPerRow, possibly none). Rows arrive in key
// order, at most limit rows (limit <= 0 means all). endKey == "" means +inf.
func (s *Store) Scan(startKey, endKey string, before uint64, versionsPerRow, limit int) []ScanRow {
	var out []ScanRow
	s.mu.Lock() // sorting the keys writes them
	defer s.mu.Unlock()
	if s.dirty {
		sort.Strings(s.keys)
		s.dirty = false
	}
	for _, key := range s.keys[sort.SearchStrings(s.keys, startKey):] {
		if endKey != "" && key >= endKey {
			break
		}
		rw := s.rows[key]
		vs := rw.appendCandidates(nil, before, versionsPerRow)
		if len(vs) == 0 && !slices.ContainsFunc(rw.versions, func(v Version) bool { return v.TS < before }) {
			continue
		}
		out = append(out, ScanRow{Key: key, Versions: vs})
		if limit > 0 && len(out) >= limit {
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
