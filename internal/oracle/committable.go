package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Status classifies a transaction as seen by the status oracle.
type Status uint8

// Transaction statuses.
const (
	// StatusPending: the transaction has neither committed nor aborted
	// (or was never seen). Readers skip its writes.
	StatusPending Status = iota
	// StatusCommitted: the transaction committed; CommitTS is valid.
	StatusCommitted
	// StatusAborted: the transaction aborted. Readers skip its writes
	// and its garbage may be collected.
	StatusAborted
	// StatusUnknown: the commit table evicted this transaction
	// (bounded mode). Clients resolve it from the stamps on the versions,
	// and treat an unstamped version as aborted (a write-back committer
	// stamped its writes before it was acked, long before eviction).
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// TxnStatus is the result of a status query.
type TxnStatus struct {
	Status   Status
	CommitTS uint64 // valid only when Status == StatusCommitted
}

// commitTableShards fixes the lock striping of the commit table. Start
// timestamps are allocated sequentially, so ts % shards spreads both inserts
// and lookups perfectly round-robin; 16 stripes keep any one reader's
// collision probability with the commit path low without bloating the
// structure.
const commitTableShards = 16

// ctShard is one lock stripe of the commit table.
type ctShard struct {
	mu      sync.RWMutex
	commits map[uint64]uint64
	aborted map[uint64]struct{}
}

// commitTable maps transaction start timestamps to their fate. When
// maxEntries > 0 the committed mappings form a sliding window; the largest
// evicted start timestamp becomes the low-water mark below which unknown
// transactions report StatusUnknown. The aborted set is kept in full: it is
// small (aborts are rare and cleaned up by clients via forget).
//
// The table is striped into commitTableShards independently read-write-
// locked fragments keyed by startTS, so status lookups — the dominant
// traffic of a read-heavy workload (§2.2) — never serialize against the
// batched commit path or against each other: a query takes one shard read
// lock, and an insert touches one shard write lock. The FIFO eviction
// bookkeeping is writer-only state under its own mutex, and the low-water
// mark is an atomic so the read path never touches it under a lock.
type commitTable struct {
	shards     [commitTableShards]ctShard
	lowWater   atomic.Uint64
	maxEntries int

	// Writer-only eviction state: order[ohead:] is the FIFO of inserted
	// start timestamps, size the number of retained committed entries.
	evictMu sync.Mutex
	order   []uint64
	ohead   int
	size    int
}

func newCommitTable(maxEntries int) *commitTable {
	t := &commitTable{maxEntries: maxEntries}
	for i := range t.shards {
		t.shards[i].commits = make(map[uint64]uint64)
		t.shards[i].aborted = make(map[uint64]struct{})
	}
	return t
}

func (t *commitTable) shard(startTS uint64) *ctShard {
	return &t.shards[startTS%commitTableShards]
}

func (t *commitTable) addCommit(startTS, commitTS uint64) {
	sh := t.shard(startTS)
	sh.mu.Lock()
	_, existed := sh.commits[startTS]
	sh.commits[startTS] = commitTS
	sh.mu.Unlock()
	if t.maxEntries <= 0 {
		return
	}
	t.evictMu.Lock()
	// A re-publication (partition 0's decide of a commit it published)
	// is already in the FIFO.
	if !existed {
		t.order = append(t.order, startTS)
		t.size++
	}
	for t.size > t.maxEntries && t.ohead < len(t.order) {
		old := t.order[t.ohead]
		t.ohead++
		osh := t.shard(old)
		osh.mu.Lock()
		if _, ok := osh.commits[old]; ok {
			// Raise the low-water mark before the entry disappears:
			// a concurrent query that misses the entry is guaranteed
			// (by the shard lock it just released) to observe the
			// mark and answer StatusUnknown, never a false pending.
			if old > t.lowWater.Load() {
				t.lowWater.Store(old)
			}
			delete(osh.commits, old)
			t.size--
		}
		osh.mu.Unlock()
	}
	// As in lastCommit.update: pops advance ohead, and the live window
	// slides down once the dead prefix is the larger half.
	if t.ohead > len(t.order)/2 {
		n := copy(t.order, t.order[t.ohead:])
		t.order, t.ohead = t.order[:n], 0
	}
	t.evictMu.Unlock()
}

func (t *commitTable) addAbort(startTS uint64) {
	sh := t.shard(startTS)
	sh.mu.Lock()
	sh.aborted[startTS] = struct{}{}
	sh.mu.Unlock()
}

// forget drops an aborted transaction once its garbage has been deleted
// from the data store.
func (t *commitTable) forget(startTS uint64) {
	sh := t.shard(startTS)
	sh.mu.Lock()
	delete(sh.aborted, startTS)
	sh.mu.Unlock()
}

func (t *commitTable) query(startTS uint64) TxnStatus {
	sh := t.shard(startTS)
	sh.mu.RLock()
	tc, committed := sh.commits[startTS]
	_, aborted := sh.aborted[startTS]
	sh.mu.RUnlock()
	if committed {
		return TxnStatus{Status: StatusCommitted, CommitTS: tc}
	}
	if aborted {
		return TxnStatus{Status: StatusAborted}
	}
	if startTS <= t.lowWater.Load() {
		return TxnStatus{Status: StatusUnknown}
	}
	return TxnStatus{Status: StatusPending}
}

// queryBatch resolves many lookups with one read-lock acquisition per
// covered shard, filling out[i] for startTSs[i]. Answers are bit-identical
// to element-wise query calls.
func (t *commitTable) queryBatch(startTSs []uint64, out []TxnStatus) {
	for si := range t.shards {
		sh := &t.shards[si]
		locked := false
		for i, ts := range startTSs {
			if ts%commitTableShards != uint64(si) {
				continue
			}
			if !locked {
				sh.mu.RLock()
				locked = true
			}
			if tc, ok := sh.commits[ts]; ok {
				out[i] = TxnStatus{Status: StatusCommitted, CommitTS: tc}
			} else if _, ok := sh.aborted[ts]; ok {
				out[i] = TxnStatus{Status: StatusAborted}
			}
			// Otherwise out[i] keeps its zero value (StatusPending),
			// refined against the low-water mark below.
		}
		if locked {
			sh.mu.RUnlock()
		}
	}
	low := t.lowWater.Load()
	for i, ts := range startTSs {
		if out[i].Status == StatusPending && ts <= low {
			out[i] = TxnStatus{Status: StatusUnknown}
		}
	}
}

// Forget drops an aborted transaction's record after the client has
// cleaned up its tentative writes (§2.2 footnote on recovery cost).
func (s *StatusOracle) Forget(startTS uint64) {
	s.table.forget(startTS)
}

// LowWater returns the commit-table eviction low-water mark: every
// transaction with start timestamp at or below it has been evicted (its
// status answers Unknown). The mark only rises, and it rises before the
// entries below it disappear, which makes it a safe external eviction key
// for downstream sliding windows (the streaming anomaly checker keys its
// window off it).
func (s *StatusOracle) LowWater() uint64 {
	return s.table.lowWater.Load()
}
