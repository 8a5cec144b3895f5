package oracle

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/tso"
	"repro/internal/wal"
)

// WAL record kinds for status-oracle state changes. Appendix A: "every
// change into the memory of the status oracle that is related to a
// transaction commit/abort is persisted in multiple remote storages".
const (
	recAbort       = 0x41 // 'A': startTS
	recCommitBatch = 0x42 // 'B': count, then per commit: startTS, commitTS, write set
	// recRetiredCommit ('C') was the single-commit record, which no writer
	// has produced since Commit became a batch of one. Replay rejects it
	// instead of skipping it as a foreign record; never reuse the kind.
	recRetiredCommit = 0x43
	// recRetiredRangeApply ('M') and recRetiredRangeDiscard ('X') carried
	// live range migrations, which were removed: replay rejects them, since
	// skipping one would silently drop or keep a migrated key range's rows.
	// Never reuse either kind.
	recRetiredRangeApply   = 0x4D
	recRetiredRangeDiscard = 0x58
)

// commitEntry is one committed transaction inside a batch record.
type commitEntry struct {
	StartTS  uint64
	CommitTS uint64
	WriteSet []RowID
}

// decodeCommitBatchRecord parses a record rendered by
// appendCommitBatchRecord.
func decodeCommitBatchRecord(b []byte) ([]commitEntry, error) {
	if len(b) < 5 || b[0] != recCommitBatch {
		return nil, fmt.Errorf("oracle: not a commit-batch record")
	}
	count := binary.BigEndian.Uint32(b[1:5])
	rest := b[5:]
	// A commit entry is at least 20 bytes: the count reserves no more
	// entries than the record can hold.
	commits := make([]commitEntry, 0, min(int(count), len(rest)/20))
	for i := uint32(0); i < count; i++ {
		if len(rest) < 20 {
			return nil, fmt.Errorf("oracle: commit-batch record truncated")
		}
		c := commitEntry{
			StartTS:  binary.BigEndian.Uint64(rest[:8]),
			CommitTS: binary.BigEndian.Uint64(rest[8:16]),
		}
		n := binary.BigEndian.Uint32(rest[16:20])
		rest = rest[20:]
		if uint64(len(rest)) < uint64(n)*8 {
			return nil, fmt.Errorf("oracle: commit-batch record truncated")
		}
		c.WriteSet = make([]RowID, n)
		for j := range c.WriteSet {
			c.WriteSet[j] = RowID(binary.BigEndian.Uint64(rest[j*8:]))
		}
		rest = rest[n*8:]
		commits = append(commits, c)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("oracle: commit-batch record length mismatch")
	}
	return commits, nil
}

func encodeAbortRecord(startTS uint64) []byte {
	b := make([]byte, 9)
	b[0] = recAbort
	binary.BigEndian.PutUint64(b[1:9], startTS)
	return b
}

func decodeAbortRecord(b []byte) (startTS uint64, err error) {
	if len(b) != 9 || b[0] != recAbort {
		return 0, fmt.Errorf("oracle: not an abort record")
	}
	return binary.BigEndian.Uint64(b[1:9]), nil
}

// Recover rebuilds a status oracle's in-memory state — the commit table,
// the aborted set, lastCommit and Tmax — from a ledger written by a
// previous incarnation, then serves requests using cfg (which typically
// carries a fresh WAL writer appending to the same replicated log). This is
// the paper's failover story for the centralized scheme (Appendix A): "the
// same status oracle after recovery, or another fresh instance … could
// still recreate the memory state from the write-ahead log".
//
// Recovery is bounded: the latest checkpoint record (if any) is loaded as
// the starting state and only the records after it are replayed, so the
// work — both the backward scan that locates the checkpoint and the replay
// — is proportional to the checkpoint interval, not the history length.
// The replayed-record count, checkpoint bound and replay duration are
// surfaced through Stats.
//
// Transactions that were in flight at the crash and have no commit record
// are treated as uncommitted: readers skip their writes, which is safe
// because their clients were never acknowledged.
func Recover(cfg Config, ledger wal.Ledger) (*StatusOracle, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pos, err := locateCheckpoint(ledger)
	if err != nil {
		return nil, err
	}
	if pos.found {
		if err := s.applyCheckpoint(pos.cp); err != nil {
			return nil, err
		}
	}
	if err := s.replaySuffix(ledger, pos, start, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// RecoverState is the one-call bounded recovery of a whole oracle server:
// both the status oracle and the timestamp oracle come back from a single
// pass over the checkpoint suffix. The timestamp oracle resumes from the
// maximum of the checkpoint's reservation bound and any reservation
// records in the suffix — the epoch fence that keeps post-recovery
// timestamps strictly above everything the previous incarnation could have
// issued — and continues logging through w, as does the status oracle.
func RecoverState(cfg Config, ledger wal.Ledger, w *wal.Writer, tsoBatch int) (*StatusOracle, *tso.Oracle, error) {
	start := time.Now()
	pos, err := locateCheckpoint(ledger)
	if err != nil {
		return nil, nil, err
	}
	// Replay applies only commit-table state, so the oracle can be built
	// with a placeholder clock and adopt the real one — resumed at the
	// bound the single suffix pass collects — afterwards.
	cfg.TSO = tso.New(tsoBatch, nil)
	cfg.WAL = nil
	s, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	bound := uint64(0)
	if pos.found {
		bound = pos.cp.TSOBound
		if err := s.applyCheckpoint(pos.cp); err != nil {
			return nil, nil, err
		}
	}
	if err := s.replaySuffix(ledger, pos, start, &bound); err != nil {
		return nil, nil, err
	}
	clock := tso.Resume(bound, tsoBatch, w)
	s.Promote(clock, w)
	return s, clock, nil
}

// ckptPos is the located latest checkpoint and the suffix replay position.
type ckptPos struct {
	cp        *checkpointState
	found     bool
	fromBatch int
	skip      int
}

func locateCheckpoint(ledger wal.Ledger) (ckptPos, error) {
	batchIdx, entryIdx, rec, found, err := findLatestCheckpoint(ledger)
	if err != nil {
		return ckptPos{}, fmt.Errorf("oracle: recovery checkpoint scan: %w", err)
	}
	if !found {
		return ckptPos{}, nil
	}
	cp, err := decodeCheckpointRecord(rec)
	if err != nil {
		return ckptPos{}, err
	}
	return ckptPos{cp: cp, found: true, fromBatch: batchIdx, skip: entryIdx + 1}, nil
}

// replaySuffix replays the post-checkpoint records and records the
// recovery stats (replayed count, checkpoint bound, wall duration since
// start). When tsoBound is non-nil it is additionally raised to the
// maximum timestamp-reservation bound seen in the suffix, so RecoverState
// recovers both oracles in this one pass.
func (s *StatusOracle) replaySuffix(ledger wal.Ledger, pos ckptPos, start time.Time, tsoBound *uint64) error {
	var replayed int64
	err := wal.ReplayRange(ledger, pos.fromBatch, pos.skip, func(entry []byte) error {
		if tsoBound != nil {
			if b, ok := tso.DecodeRecord(entry); ok && b > *tsoBound {
				*tsoBound = b
			}
		}
		applied, err := s.ApplyLogEntry(entry)
		if applied {
			replayed++
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("oracle: recovery replay: %w", err)
	}
	var bound uint64
	if pos.found {
		bound = pos.cp.TSOBound
	}
	s.stats.setRecovery(replayed, bound, pos.found, time.Since(start))
	return nil
}

// ApplyLogEntry applies one WAL record to the oracle's in-memory state:
// commits and aborts extend the commit table and lastCommit exactly as
// recovery replay would, and a checkpoint record resets the state to its
// snapshot (idempotent for a tailer that already applied the prefix the
// checkpoint covers). applied is false for foreign record types (e.g.
// timestamp reservations) that share the ledger. It is the building block
// of the hot-standby tailer in internal/ha; it must not be called on an
// oracle that is concurrently serving commits.
func (s *StatusOracle) ApplyLogEntry(entry []byte) (applied bool, err error) {
	if len(entry) == 0 {
		return false, fmt.Errorf("oracle: empty WAL entry")
	}
	switch entry[0] {
	case recRetiredCommit:
		return false, fmt.Errorf("oracle: retired single-commit record (kind %#x)", recRetiredCommit)
	case recRetiredRangeApply, recRetiredRangeDiscard:
		return false, fmt.Errorf("oracle: retired range-migration record (kind %#x)", entry[0])
	case recCommitBatch:
		commits, err := decodeCommitBatchRecord(entry)
		if err != nil {
			return false, err
		}
		for i := range commits {
			s.replayCommit(commits[i].StartTS, commits[i].CommitTS, commits[i].WriteSet)
		}
	case recAbort:
		startTS, err := decodeAbortRecord(entry)
		if err != nil {
			return false, err
		}
		s.table.addAbort(startTS)
	case recPrepare:
		req, err := decodePrepareRecord(entry)
		if err != nil {
			return false, err
		}
		s.applyPrepareEntry(req)
	case recDecide:
		d, writeSet, err := decodeDecideRecord(entry)
		if err != nil {
			return false, err
		}
		s.applyDecideEntry(d, writeSet)
	case recCheckpoint:
		cp, err := decodeCheckpointRecord(entry)
		if err != nil {
			return false, err
		}
		if err := s.applyCheckpoint(cp); err != nil {
			return false, err
		}
	default:
		return false, nil
	}
	return true, nil
}

// Promote attaches a timestamp oracle and a WAL writer to an oracle whose
// state was built without them — the hot-standby shadow. It must be called
// before the oracle serves its first request and must not race ongoing
// applies; internal/ha's fenced promotion sequence guarantees both.
func (s *StatusOracle) Promote(clock *tso.Oracle, w *wal.Writer) {
	s.tso = clock
	s.cfg.TSO = clock
	s.cfg.WAL = w
}

// replayCommit reapplies one recovered commit to lastCommit and the commit
// table. updateMax, not update: a two-phase decide may have been appended
// after a later-timestamped commit of the same row, so log order is not
// commit-timestamp order and a replay must never lower a row's retained
// timestamp.
func (s *StatusOracle) replayCommit(startTS, commitTS uint64, writeSet []RowID) {
	for _, r := range writeSet {
		sh := s.shards[s.shardOf(r)]
		sh.mu.Lock()
		sh.updateMax(r, commitTS)
		sh.mu.Unlock()
	}
	s.table.addCommit(startTS, commitTS)
}
