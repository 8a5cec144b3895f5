package kvstore

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

// compactBefore prunes one region. Stamps are read off the row; only
// unstamped versions cost a resolver call, and a committed answer is stamped
// on the spot (the write lock is already held), so a row nobody reads is
// asked about once, not once per pass. Nothing is allocated.
func (r *Region) compactBefore(lowWater uint64, resolve Resolver) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	removed := 0
	for key, rw := range r.rows {
		if len(rw.versions) == 1 && rw.versions[0].CommitTS != 0 {
			continue // settled and alone: nothing to learn, nothing to drop
		}
		// First pass: learn what is not stamped yet, drop the aborted, and
		// find the retained snapshot version — the largest commit
		// timestamp below the mark.
		var bestTC uint64
		kept := rw.versions[:0]
		for _, v := range rw.versions {
			if v.CommitTS == 0 {
				tc, st := resolve(key, v.TS)
				if st == GCAborted {
					removed++
					continue
				}
				if st == GCCommitted {
					v.CommitTS = tc
				}
			}
			if tc := v.CommitTS; tc != 0 && tc < lowWater && tc > bestTC {
				bestTC = tc
			}
			kept = append(kept, v)
		}
		// Second pass: every committed version it supersedes goes.
		rw.versions, kept = kept, kept[:0]
		for _, v := range rw.versions {
			if v.CommitTS != 0 && v.CommitTS < bestTC {
				removed++
				continue
			}
			kept = append(kept, v)
		}
		rw.versions = kept
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
