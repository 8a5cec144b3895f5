package kvstore

import (
	"slices"
	"sort"
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

// insert adds v to the pending part, replacing the version written at the
// same timestamp (a transaction rewriting its own tentative write), and
// reports whether no version was written there before. The new version is
// stored whole, so the replaced one's CommitTS goes with it: a stamp never
// outlives the bytes it was learned about. A fresh write moves only the
// pending part.
func (rw *row) insert(v Version) bool {
	at := rw.locate(v.TS)
	if at >= rw.stamped {
		rw.versions[at] = v
		return false
	} else if at >= 0 {
		rw.remove(at)
	}
	i := rw.stamped
	for i < len(rw.versions) && rw.versions[i].TS > v.TS {
		i++
	}
	rw.versions = slices.Insert(rw.versions, i, v)
	return at < 0
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
