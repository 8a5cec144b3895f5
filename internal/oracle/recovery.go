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
	recCommit      = 0x43 // 'C': startTS, commitTS, write set
	recAbort       = 0x41 // 'A': startTS
	recCommitBatch = 0x42 // 'B': count, then per commit: startTS, commitTS, write set
)

// commitEntry is one committed transaction inside a batch record.
type commitEntry struct {
	StartTS  uint64
	CommitTS uint64
	WriteSet []RowID
}

// encodeCommitBatchRecord renders the committed subset of a CommitBatch as
// one WAL entry, so an entire batch costs a single group-commit append.
// Layout:
//
//	[1] kind | [4] count | count × ( [8] startTS | [8] commitTS | [4] n | n×[8] row ids )
func encodeCommitBatchRecord(commits []commitEntry) []byte {
	size := 1 + 4
	for i := range commits {
		size += 8 + 8 + 4 + 8*len(commits[i].WriteSet)
	}
	b := make([]byte, size)
	b[0] = recCommitBatch
	binary.BigEndian.PutUint32(b[1:5], uint32(len(commits)))
	off := 5
	for i := range commits {
		c := &commits[i]
		binary.BigEndian.PutUint64(b[off:], c.StartTS)
		binary.BigEndian.PutUint64(b[off+8:], c.CommitTS)
		binary.BigEndian.PutUint32(b[off+16:], uint32(len(c.WriteSet)))
		off += 20
		for _, r := range c.WriteSet {
			binary.BigEndian.PutUint64(b[off:], uint64(r))
			off += 8
		}
	}
	return b
}

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

// encodeCommitRecord renders a commit decision. Layout:
//
//	[1] kind | [8] startTS | [8] commitTS | [4] n | n×[8] row ids
//
// The write set is included so recovery can rebuild lastCommit (and thus
// Tmax) exactly, not just the commit table.
func encodeCommitRecord(startTS, commitTS uint64, writeSet []RowID) []byte {
	b := make([]byte, 1+8+8+4+8*len(writeSet))
	b[0] = recCommit
	binary.BigEndian.PutUint64(b[1:9], startTS)
	binary.BigEndian.PutUint64(b[9:17], commitTS)
	binary.BigEndian.PutUint32(b[17:21], uint32(len(writeSet)))
	off := 21
	for _, r := range writeSet {
		binary.BigEndian.PutUint64(b[off:off+8], uint64(r))
		off += 8
	}
	return b
}

func decodeCommitRecord(b []byte) (startTS, commitTS uint64, writeSet []RowID, err error) {
	if len(b) < 21 || b[0] != recCommit {
		return 0, 0, nil, fmt.Errorf("oracle: not a commit record")
	}
	startTS = binary.BigEndian.Uint64(b[1:9])
	commitTS = binary.BigEndian.Uint64(b[9:17])
	n := binary.BigEndian.Uint32(b[17:21])
	if len(b) != 21+int(n)*8 {
		return 0, 0, nil, fmt.Errorf("oracle: commit record length mismatch")
	}
	writeSet = make([]RowID, n)
	off := 21
	for i := range writeSet {
		writeSet[i] = RowID(binary.BigEndian.Uint64(b[off : off+8]))
		off += 8
	}
	return startTS, commitTS, writeSet, nil
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
	case recCommit:
		startTS, commitTS, writeSet, err := decodeCommitRecord(entry)
		if err != nil {
			return false, err
		}
		s.replayCommit(startTS, commitTS, writeSet)
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
	case recRangeApply:
		rs, err := decodeRangeApplyRecord(entry)
		if err != nil {
			return false, err
		}
		s.applyRangeState(rs)
	case recRangeDiscard:
		lo, hi, err := decodeRangeDiscardRecord(entry)
		if err != nil {
			return false, err
		}
		if err := s.discardRangeState(lo, hi, false); err != nil {
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
// table. updateMax, not update: with pre-allocated commit timestamps a
// decide may have been appended after a later-timestamped one-shot commit
// of the same row, so log order is not commit-timestamp order and a replay
// must never lower a row's retained timestamp.
func (s *StatusOracle) replayCommit(startTS, commitTS uint64, writeSet []RowID) {
	for _, r := range writeSet {
		sh := s.shards[s.shardOf(r)]
		sh.mu.Lock()
		sh.updateMax(r, commitTS)
		sh.mu.Unlock()
	}
	s.table.addCommit(startTS, commitTS)
}
