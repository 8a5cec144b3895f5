// Package ssi implements a centralized, commit-time variant of Cahill,
// Röhm and Fekete's serializable snapshot isolation (§7.1 [8]) as a
// comparison baseline for the status oracle's engines.
//
// SSI keeps snapshot isolation's write-write conflict detection and
// additionally tracks read-write anti-dependencies: transaction T has an
// *outConflict* when it read something a concurrent committed transaction
// overwrote (T -rw-> U), and an *inConflict* when a concurrent committed
// transaction read something T wrote (U -rw-> T). A transaction that is a
// "pivot" — both flags set — could sit inside a dependency cycle, so it is
// aborted. As the paper notes, this is conservative: the pattern "allows
// for false positives, which further lowers the concurrency level due to
// unnecessary aborts".
//
// Unlike Cahill's in-database implementation with SIREAD locks on active
// transactions, this certifier sees read sets only at commit time — the
// same information flow as the paper's status oracle — so anti-dependency
// edges between two transactions are recorded when the later of the two
// commits. Every rw edge between committed pairs is still observed, which
// is what dangerous-structure detection needs.
package ssi

import (
	"sync"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// txnRecord retains a committed transaction's footprint for conflict
// flagging against later committers.
type txnRecord struct {
	startTS  uint64
	commitTS uint64
	readSet  map[oracle.RowID]struct{}
	writeSet map[oracle.RowID]struct{}
	in       bool // some committed txn anti-depends on this one
	out      bool // this one anti-depends on some committed txn
}

// Certifier is the centralized SSI commit arbiter. It satisfies the same
// Begin/Commit shape as the status oracle so the benchmark harness can swap
// engines.
type Certifier struct {
	tso *tso.Oracle

	mu         sync.Mutex
	lastCommit map[oracle.RowID]uint64
	window     []*txnRecord // committed txns, oldest first
	maxWindow  int

	commits    int64
	aborts     int64
	wwAbort    int64
	pivotAbort int64
}

// New creates a certifier. maxWindow bounds the retained committed
// transactions (0 selects a default of 4096); evicted transactions can no
// longer contribute anti-dependency edges, which matches the paper's
// bounded-memory pragmatics (old transactions cannot be concurrent with new
// ones once every live start timestamp is newer).
func New(clock *tso.Oracle, maxWindow int) *Certifier {
	if maxWindow <= 0 {
		maxWindow = 4096
	}
	return &Certifier{
		tso:        clock,
		lastCommit: make(map[oracle.RowID]uint64),
		maxWindow:  maxWindow,
	}
}

// Begin allocates a start timestamp.
func (c *Certifier) Begin() (uint64, error) {
	return c.tso.Next()
}

// Commit certifies a transaction: SI's write-write check first, then
// dangerous-structure detection. Returns the commit decision.
func (c *Certifier) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	if req.ReadOnly() {
		// Read-only transactions commit under SI semantics. (True
		// SSI can abort read-only pivots; the commit-time variant
		// cannot see them, a documented source of additional —
		// not fewer — serializability checks in WSI's favour.)
		return oracle.CommitResult{Committed: true, CommitTS: req.StartTS}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	// SI write-write check (Algorithm 1).
	for _, r := range req.WriteSet {
		if tc, ok := c.lastCommit[r]; ok && tc > req.StartTS {
			c.aborts++
			c.wwAbort++
			return oracle.CommitResult{}, nil
		}
	}

	// Anti-dependency flags against concurrent committed transactions.
	reads := make(map[oracle.RowID]struct{}, len(req.ReadSet))
	for _, r := range req.ReadSet {
		reads[r] = struct{}{}
	}
	writes := make(map[oracle.RowID]struct{}, len(req.WriteSet))
	for _, r := range req.WriteSet {
		writes[r] = struct{}{}
	}
	var in, out bool
	type flagged struct {
		rec    *txnRecord
		setIn  bool
		setOut bool
	}
	var pendingFlags []flagged
	for _, u := range c.window {
		if u.commitTS <= req.StartTS {
			continue // not concurrent: u committed before we started
		}
		// T reads x, U wrote x, U committed during T's lifetime:
		// T -rw-> U.
		if intersects(reads, u.writeSet) {
			out = true
			pendingFlags = append(pendingFlags, flagged{rec: u, setIn: true})
		}
		// U read x, T writes x: U -rw-> T.
		if intersects(u.readSet, writes) {
			in = true
			pendingFlags = append(pendingFlags, flagged{rec: u, setOut: true})
		}
	}
	if in && out {
		c.aborts++
		c.pivotAbort++
		return oracle.CommitResult{}, nil
	}
	// Would committing make an already-committed transaction a pivot?
	// We cannot abort it, so abort T instead (Cahill's rule when the
	// pivot has committed).
	for _, f := range pendingFlags {
		if (f.rec.in || f.setIn) && (f.rec.out || f.setOut) {
			c.aborts++
			c.pivotAbort++
			return oracle.CommitResult{}, nil
		}
	}
	for _, f := range pendingFlags {
		f.rec.in = f.rec.in || f.setIn
		f.rec.out = f.rec.out || f.setOut
	}

	commitTS, err := c.tso.Next()
	if err != nil {
		return oracle.CommitResult{}, err
	}
	for r := range writes {
		c.lastCommit[r] = commitTS
	}
	c.window = append(c.window, &txnRecord{
		startTS:  req.StartTS,
		commitTS: commitTS,
		readSet:  reads,
		writeSet: writes,
	})
	if len(c.window) > c.maxWindow {
		c.window = append([]*txnRecord(nil), c.window[len(c.window)-c.maxWindow:]...)
	}
	c.commits++
	return oracle.CommitResult{Committed: true, CommitTS: commitTS}, nil
}

// intersects reports whether the two sets share an element, iterating the
// smaller one.
func intersects(a, b map[oracle.RowID]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for r := range a {
		if _, ok := b[r]; ok {
			return true
		}
	}
	return false
}

// Stats summarizes the certifier's decisions.
type Stats struct {
	Commits     int64
	Aborts      int64
	WWAborts    int64
	PivotAborts int64
}

// Stats returns a snapshot of the counters.
func (c *Certifier) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Commits: c.commits, Aborts: c.aborts, WWAborts: c.wwAbort, PivotAborts: c.pivotAbort}
}
