package partition

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/oracle"
	"repro/internal/wal"
)

// recDecision is the WAL record kind of one coordinator verdict. It shares
// a ledger with nothing else by default, but the kind byte keeps it
// distinguishable if a deployment folds the decision log into another log.
const recDecision = 0x47 // 'G'

// DecisionLog is the coordinator's durable record of two-phase verdicts.
// A commit decision is persisted here before any Decide fans out, so a
// partition that crashes between its prepare and its decide can always
// settle the in-doubt transaction by asking the log: present-and-commit
// means commit, anything else means the coordinator never promised the
// commit and abort is safe — the same settle-by-lookup rule in-doubt
// clients use after a failover.
type DecisionLog struct {
	mu        sync.Mutex
	decisions map[uint64]oracle.Decision
	w         *wal.Writer // nil: in-memory only (tests, pure benchmarks)
}

// NewDecisionLog creates a decision log persisting through w (nil for
// in-memory only).
func NewDecisionLog(w *wal.Writer) *DecisionLog {
	return &DecisionLog{decisions: make(map[uint64]oracle.Decision), w: w}
}

// publishMem inserts verdicts into the in-memory index only. The
// coordinator calls it inside the clock's critical section, so every
// snapshot issued above a commit's timestamp can already resolve the
// commit from the log — the partitioned analogue of the single oracle
// publishing its commit-table entry atomically with the timestamp
// allocation.
func (l *DecisionLog) publishMem(ds []oracle.Decision) {
	l.mu.Lock()
	for _, d := range ds {
		l.decisions[d.StartTS] = d
	}
	l.mu.Unlock()
}

// appendWAL persists verdicts without touching the in-memory index.
func (l *DecisionLog) appendWAL(ds []oracle.Decision) error {
	if l.w == nil {
		return nil
	}
	entries := make([][]byte, len(ds))
	for i, d := range ds {
		entries[i] = encodeDecisionRecord(d)
	}
	if err := l.w.AppendAll(entries...); err != nil {
		return fmt.Errorf("partition: persist decisions: %w", err)
	}
	return nil
}

// Lookup returns the recorded verdict for a transaction.
func (l *DecisionLog) Lookup(startTS uint64) (oracle.Decision, bool) {
	l.mu.Lock()
	d, ok := l.decisions[startTS]
	l.mu.Unlock()
	return d, ok
}

// Len returns the number of recorded verdicts.
func (l *DecisionLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.decisions)
}

// RecoverDecisionLog rebuilds a decision log from its ledger, then
// continues logging through w.
func RecoverDecisionLog(ledger wal.Ledger, w *wal.Writer) (*DecisionLog, error) {
	l := NewDecisionLog(w)
	err := wal.Replay(ledger, func(entry []byte) error {
		d, ok := decodeDecisionRecord(entry)
		if !ok {
			return nil // foreign record types may share the ledger
		}
		l.decisions[d.StartTS] = d
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("partition: decision log replay: %w", err)
	}
	return l, nil
}

// ResolveInDoubt settles a recovered partition's in-doubt prepares against
// the coordinator's decision log: a logged commit is re-decided as commit,
// everything else aborts (the coordinator never fans out a commit decide
// before logging it, so an unlogged prepare was never promised). Returns
// the number of commits and aborts applied.
func ResolveInDoubt(so *oracle.StatusOracle, dlog *DecisionLog) (commits, aborts int, err error) {
	inDoubt := so.InDoubt()
	if len(inDoubt) == 0 {
		return 0, 0, nil
	}
	ds := make([]oracle.Decision, len(inDoubt))
	for i, p := range inDoubt {
		if d, ok := dlog.Lookup(p.StartTS); ok {
			ds[i] = d
		} else {
			ds[i] = oracle.Decision{StartTS: p.StartTS, CommitTS: p.CommitTS, Commit: false}
		}
		if ds[i].Commit {
			commits++
		} else {
			aborts++
		}
	}
	if err := so.DecideBatch(ds); err != nil {
		return 0, 0, err
	}
	return commits, aborts, nil
}

// encodeDecisionRecord renders one verdict. Layout:
//
//	[1] kind | [1] commit | [8] startTS | [8] commitTS
func encodeDecisionRecord(d oracle.Decision) []byte {
	b := make([]byte, 18)
	b[0] = recDecision
	if d.Commit {
		b[1] = 1
	}
	binary.BigEndian.PutUint64(b[2:10], d.StartTS)
	binary.BigEndian.PutUint64(b[10:18], d.CommitTS)
	return b
}

func decodeDecisionRecord(b []byte) (oracle.Decision, bool) {
	if len(b) != 18 || b[0] != recDecision {
		return oracle.Decision{}, false
	}
	return oracle.Decision{
		Commit:   b[1] == 1,
		StartTS:  binary.BigEndian.Uint64(b[2:10]),
		CommitTS: binary.BigEndian.Uint64(b[10:18]),
	}, true
}
