package kvstore

import (
	"slices"
	"sort"
)

// MVCC garbage collection. A multi-version store grows without bound
// unless versions that no possible snapshot can observe are pruned (§2's
// multi-version substrate [6]). Visibility is decided by *commit*
// timestamps, which the store knows only for versions somebody has stamped
// (StampCommits); for the rest collection takes a Resolver callback (the
// transaction layer supplies one backed by the status oracle; see
// txn.Client.GC).
//
// Given a low-water mark — the oldest start timestamp any live or future
// transaction can hold — a version is reclaimable if it is aborted, or if
// it is committed and some other committed version of the same row has a
// larger commit timestamp that is still below the mark (i.e. every
// snapshot at or above the mark prefers the newer one). Pending versions
// are never collected.

// GCStatus classifies a version for the collector.
type GCStatus uint8

// Resolver outcomes.
const (
	// GCPending: the writing transaction's fate is unknown; keep.
	GCPending GCStatus = iota
	// GCCommitted: committed with the returned commit timestamp.
	GCCommitted
	// GCAborted: the version is garbage regardless of the watermark.
	GCAborted
)

// Resolver reports the commit status of the version of key written at
// writeTS. The collector calls it for unstamped versions only, while holding
// the region's write lock: a Resolver must not call into the store.
type Resolver func(key string, writeTS uint64) (commitTS uint64, status GCStatus)

// CompactBefore prunes versions unobservable by any snapshot at or above
// lowWater, across all regions, and returns the number removed.
func (s *Store) CompactBefore(lowWater uint64, resolve Resolver) int {
	s.topoMu.RLock()
	regions := append([]*Region(nil), s.regions...)
	s.topoMu.RUnlock()
	removed := 0
	for _, r := range regions {
		removed += r.compactBefore(lowWater, resolve)
	}
	return removed
}

// compactBefore prunes one region. Stamps are read off the row; only pending
// versions cost a resolver call, and a committed answer is stamped on the
// spot (the write lock is already held), so a row nobody reads is asked
// about once, not once per pass. The stamped prefix below the retained
// snapshot version then goes in one cut. Nothing is allocated.
func (r *Region) compactBefore(lowWater uint64, resolve Resolver) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	removed := 0
	for key, rw := range r.rows {
		for i := rw.stamped; i < len(rw.versions); {
			tc, st := resolve(key, rw.versions[i].TS)
			switch st {
			case GCAborted:
				rw.remove(i)
				removed++
				continue
			case GCCommitted:
				rw.stamp(i, tc)
			}
			i++
		}
		// The retained snapshot version is the last stamped one committed
		// below the mark; every stamped version before it goes.
		cut := sort.Search(rw.stamped, func(i int) bool { return rw.versions[i].CommitTS >= lowWater }) - 1
		if cut <= 0 {
			continue
		}
		rw.versions, rw.stamped = slices.Delete(rw.versions, 0, cut), rw.stamped-cut
		removed += cut
	}
	return removed
}

// VersionCount returns the total number of stored versions (test and
// monitoring hook).
func (s *Store) VersionCount() int {
	s.topoMu.RLock()
	regions := append([]*Region(nil), s.regions...)
	s.topoMu.RUnlock()
	n := 0
	for _, r := range regions {
		r.mu.RLock()
		for _, rw := range r.rows {
			n += len(rw.versions)
		}
		r.mu.RUnlock()
	}
	return n
}
