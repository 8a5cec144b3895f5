package oracle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/wal"
)

// recCheckpoint is the WAL record kind of a commit-table checkpoint: a full
// snapshot of the status oracle's recoverable state. Recovery loads the
// latest checkpoint and replays only the records after it, so the replay
// work is bounded by the checkpoint interval instead of the history length
// — the missing half of the paper's Appendix A failover story, where a
// recovering status oracle "could still recreate the memory state from the
// write-ahead log" but with no bound on how long that takes.
const recCheckpoint = 0x4B // 'K'

// checkpointState is the decoded content of a checkpoint record: the
// commit table (commits, aborts, eviction FIFO, low-water mark), every
// lastCommit shard (rows, eviction queue, tmax), and the timestamp
// oracle's durable reservation bound — the epoch fence that keeps a
// promoted or recovered oracle's timestamps strictly above everything the
// previous incarnation could have issued.
type checkpointState struct {
	TSOBound uint64
	LowWater uint64
	Commits  []commitPair
	Aborted  []uint64
	Order    []uint64 // commit-table eviction FIFO (bounded mode only)
	Shards   []shardState
	// Prepared carries the in-flight two-phase transactions (prepare.go)
	// whose recPrepare records lie before this checkpoint: without it, a
	// bounded replay would lose their prepared row locks and in-doubt
	// status, and a decide arriving after recovery could no longer fold
	// their write sets into lastCommit.
	Prepared []preparedSnap
}

// preparedSnap is one in-flight prepared transaction inside a checkpoint.
type preparedSnap struct {
	StartTS  uint64
	CommitTS uint64
	WriteSet []RowID
	ReadSet  []RowID
}

type commitPair struct {
	StartTS  uint64
	CommitTS uint64
}

type shardState struct {
	Tmax  uint64
	Rows  []evictEntry // lastCommit contents, sorted by row for determinism
	Queue []evictEntry // NR-eviction FIFO, in insertion order
}

// CheckpointBound extracts the TSO reservation bound from a checkpoint
// entry; ok is false for other record kinds. The hot-standby tailer uses
// it to track the timestamp epoch without decoding the whole snapshot.
func CheckpointBound(entry []byte) (bound uint64, ok bool) {
	if len(entry) < 17 || entry[0] != recCheckpoint {
		return 0, false
	}
	return binary.BigEndian.Uint64(entry[1:9]), true
}

// encodeCheckpointRecord renders a checkpoint. Layout:
//
//	[1] kind | [8] tsoBound | [8] lowWater
//	| [4] nCommits | nCommits × ([8] startTS [8] commitTS)
//	| [4] nAborted | nAborted × [8] startTS
//	| [4] orderLen | orderLen × [8] startTS
//	| [4] nShards  | per shard: [8] tmax
//	                 | [4] nRows  | nRows × ([8] row [8] ts)
//	                 | [4] qLen   | qLen  × ([8] row [8] ts)
//	| [4] nPrepared | per prepare: [8] startTS [8] commitTS
//	                 | [4] nW | nW×[8] rows | [4] nR | nR×[8] rows
func encodeCheckpointRecord(cp *checkpointState) []byte {
	size := 1 + 8 + 8 + 4 + 16*len(cp.Commits) + 4 + 8*len(cp.Aborted) + 4 + 8*len(cp.Order) + 4
	for i := range cp.Shards {
		size += 8 + 4 + 16*len(cp.Shards[i].Rows) + 4 + 16*len(cp.Shards[i].Queue)
	}
	size += 4
	for i := range cp.Prepared {
		size += 8 + 8 + 4 + 8*len(cp.Prepared[i].WriteSet) + 4 + 8*len(cp.Prepared[i].ReadSet)
	}
	b := make([]byte, 0, size)
	b = append(b, recCheckpoint)
	b = appendU64(b, cp.TSOBound)
	b = appendU64(b, cp.LowWater)
	b = appendU32(b, uint32(len(cp.Commits)))
	for _, c := range cp.Commits {
		b = appendU64(b, c.StartTS)
		b = appendU64(b, c.CommitTS)
	}
	b = appendU32(b, uint32(len(cp.Aborted)))
	for _, ts := range cp.Aborted {
		b = appendU64(b, ts)
	}
	b = appendU32(b, uint32(len(cp.Order)))
	for _, ts := range cp.Order {
		b = appendU64(b, ts)
	}
	b = appendU32(b, uint32(len(cp.Shards)))
	for i := range cp.Shards {
		sh := &cp.Shards[i]
		b = appendU64(b, sh.Tmax)
		b = appendU32(b, uint32(len(sh.Rows)))
		for _, e := range sh.Rows {
			b = appendU64(b, uint64(e.row))
			b = appendU64(b, e.ts)
		}
		b = appendU32(b, uint32(len(sh.Queue)))
		for _, e := range sh.Queue {
			b = appendU64(b, uint64(e.row))
			b = appendU64(b, e.ts)
		}
	}
	b = appendU32(b, uint32(len(cp.Prepared)))
	for i := range cp.Prepared {
		p := &cp.Prepared[i]
		b = appendU64(b, p.StartTS)
		b = appendU64(b, p.CommitTS)
		b = appendRowSet(b, p.WriteSet)
		b = appendRowSet(b, p.ReadSet)
	}
	return b
}

func appendU64(b []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(b, buf[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	return append(b, buf[:]...)
}

// checkpointReader cursors through a checkpoint record with bounds checks.
type checkpointReader struct {
	b   []byte
	err error
}

func (r *checkpointReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = fmt.Errorf("oracle: checkpoint record truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v
}

func (r *checkpointReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = fmt.Errorf("oracle: checkpoint record truncated")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[:4])
	r.b = r.b[4:]
	return v
}

// reserve caps a count read from the record at the elements of size bytes
// (the section's smallest encoding) that the rest of the record can hold, so
// a corrupt count sizes no allocation beyond the bytes that are there.
func (r *checkpointReader) reserve(n uint32, size int) int {
	return min(int(n), len(r.b)/size)
}

func (r *checkpointReader) entries(n uint32) []evictEntry {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < uint64(n)*16 {
		r.err = fmt.Errorf("oracle: checkpoint record truncated")
		return nil
	}
	out := make([]evictEntry, n)
	for i := range out {
		out[i] = evictEntry{row: RowID(r.u64()), ts: r.u64()}
	}
	return out
}

func (r *checkpointReader) rows(n uint32) []RowID {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < uint64(n)*8 {
		r.err = fmt.Errorf("oracle: checkpoint record truncated")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]RowID, n)
	for i := range out {
		out[i] = RowID(r.u64())
	}
	return out
}

func decodeCheckpointRecord(b []byte) (*checkpointState, error) {
	if len(b) < 1 || b[0] != recCheckpoint {
		return nil, fmt.Errorf("oracle: not a checkpoint record")
	}
	r := &checkpointReader{b: b[1:]}
	cp := &checkpointState{TSOBound: r.u64(), LowWater: r.u64()}
	n := r.u32()
	cp.Commits = make([]commitPair, 0, r.reserve(n, 16))
	for i := uint32(0); i < n && r.err == nil; i++ {
		cp.Commits = append(cp.Commits, commitPair{StartTS: r.u64(), CommitTS: r.u64()})
	}
	n = r.u32()
	cp.Aborted = make([]uint64, 0, r.reserve(n, 8))
	for i := uint32(0); i < n && r.err == nil; i++ {
		cp.Aborted = append(cp.Aborted, r.u64())
	}
	n = r.u32()
	cp.Order = make([]uint64, 0, r.reserve(n, 8))
	for i := uint32(0); i < n && r.err == nil; i++ {
		cp.Order = append(cp.Order, r.u64())
	}
	n = r.u32()
	cp.Shards = make([]shardState, 0, r.reserve(n, 16))
	for i := uint32(0); i < n && r.err == nil; i++ {
		var sh shardState
		sh.Tmax = r.u64()
		sh.Rows = r.entries(r.u32())
		sh.Queue = r.entries(r.u32())
		cp.Shards = append(cp.Shards, sh)
	}
	if r.err == nil && len(r.b) == 0 {
		// A checkpoint written before the partitioned-oracle protocol has
		// no Prepared section; recovery of a pre-upgrade ledger must not
		// fail on it. (No prepares could have been in flight then.)
		return cp, nil
	}
	n = r.u32()
	cp.Prepared = make([]preparedSnap, 0, r.reserve(n, 24))
	for i := uint32(0); i < n && r.err == nil; i++ {
		var p preparedSnap
		p.StartTS = r.u64()
		p.CommitTS = r.u64()
		p.WriteSet = r.rows(r.u32())
		p.ReadSet = r.rows(r.u32())
		cp.Prepared = append(cp.Prepared, p)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("oracle: checkpoint record length mismatch")
	}
	return cp, nil
}

// captureCheckpoint snapshots the oracle's recoverable state. The caller
// must hold ckptMu exclusively (no mutation is anywhere between publishing
// state and appending its WAL record); concurrent readers are excluded per
// structure by taking the ordinary locks.
func (s *StatusOracle) captureCheckpoint(tsoBound uint64) *checkpointState {
	cp := &checkpointState{TSOBound: tsoBound, LowWater: s.table.lowWater.Load()}
	for i := range s.table.shards {
		sh := &s.table.shards[i]
		sh.mu.RLock()
		for start, commit := range sh.commits {
			cp.Commits = append(cp.Commits, commitPair{StartTS: start, CommitTS: commit})
		}
		for start := range sh.aborted {
			cp.Aborted = append(cp.Aborted, start)
		}
		sh.mu.RUnlock()
	}
	// Deterministic encoding: the maps iterate in random order.
	sort.Slice(cp.Commits, func(i, j int) bool { return cp.Commits[i].StartTS < cp.Commits[j].StartTS })
	sort.Slice(cp.Aborted, func(i, j int) bool { return cp.Aborted[i] < cp.Aborted[j] })
	s.table.evictMu.Lock()
	cp.Order = append([]uint64(nil), s.table.order...)
	s.table.evictMu.Unlock()
	cp.Shards = make([]shardState, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		st := &cp.Shards[i]
		st.Tmax = sh.tmax
		st.Rows = make([]evictEntry, 0, sh.rowCount())
		sh.forEachRow(func(r RowID, ts uint64) {
			st.Rows = append(st.Rows, evictEntry{row: r, ts: ts})
		})
		st.Queue = append([]evictEntry(nil), sh.queue...)
		sh.mu.Unlock()
		sort.Slice(st.Rows, func(a, b int) bool { return st.Rows[a].row < st.Rows[b].row })
	}
	s.prepMu.Lock()
	cp.Prepared = make([]preparedSnap, 0, len(s.prepared))
	for start, pt := range s.prepared {
		cp.Prepared = append(cp.Prepared, preparedSnap{
			StartTS:  start,
			CommitTS: pt.commitTS,
			WriteSet: pt.writeSet,
			ReadSet:  pt.readSet,
		})
	}
	s.prepMu.Unlock()
	sort.Slice(cp.Prepared, func(a, b int) bool { return cp.Prepared[a].StartTS < cp.Prepared[b].StartTS })
	return cp
}

// applyCheckpoint resets the oracle's state to the snapshot. It is used by
// recovery (the snapshot replaces the log prefix) and by the hot-standby
// tailer (a checkpoint record reasserts exactly the state the tailer has
// already accumulated, so resetting to it is idempotent).
func (s *StatusOracle) applyCheckpoint(cp *checkpointState) error {
	if len(cp.Shards) != len(s.shards) {
		return fmt.Errorf("oracle: checkpoint has %d lastCommit shards, config has %d",
			len(cp.Shards), len(s.shards))
	}
	for i := range s.table.shards {
		sh := &s.table.shards[i]
		sh.mu.Lock()
		sh.commits = make(map[uint64]uint64)
		sh.aborted = make(map[uint64]struct{})
		sh.mu.Unlock()
	}
	for _, c := range cp.Commits {
		sh := s.table.shard(c.StartTS)
		sh.mu.Lock()
		sh.commits[c.StartTS] = c.CommitTS
		sh.mu.Unlock()
	}
	for _, ts := range cp.Aborted {
		s.table.addAbort(ts)
	}
	s.table.lowWater.Store(cp.LowWater)
	s.table.evictMu.Lock()
	s.table.order = append([]uint64(nil), cp.Order...)
	s.table.size = len(cp.Commits)
	s.table.evictMu.Unlock()
	for i, sh := range s.shards {
		st := &cp.Shards[i]
		sh.mu.Lock()
		sh.resetRows(len(st.Rows))
		for _, e := range st.Rows {
			sh.putRow(e.row, e.ts)
		}
		sh.queue = append([]evictEntry(nil), st.Queue...)
		sh.tmax = st.Tmax
		// The prepared refcounts are re-derived from the snapshot below.
		sh.preparedW = nil
		sh.preparedR = nil
		sh.mu.Unlock()
	}
	s.prepMu.Lock()
	s.prepared = make(map[uint64]*preparedTxn, len(cp.Prepared))
	s.prepMu.Unlock()
	for i := range cp.Prepared {
		p := &cp.Prepared[i]
		s.applyPrepareEntry(&PrepareRequest{
			StartTS:  p.StartTS,
			CommitTS: p.CommitTS,
			WriteSet: p.WriteSet,
			ReadSet:  p.ReadSet,
		})
	}
	return nil
}

// Checkpoint writes a commit-table snapshot record to the WAL. The capture
// is a consistent cut: ckptMu excludes every commit/abort from the window
// between publishing its state and appending its record, and the timestamp
// oracle is frozen so the recorded reservation bound is exact. Recovery
// then loads the latest checkpoint and replays only the suffix after it.
//
// The pause this imposes on the commit path is one state capture plus one
// group-commit append — microseconds to low milliseconds — paid once per
// checkpoint interval, in exchange for recovery work bounded by that same
// interval.
func (s *StatusOracle) Checkpoint() error {
	if err, ok := s.failed.Load().(error); ok {
		return err
	}
	if s.cfg.WAL == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	bound := s.tso.Freeze()
	defer s.tso.Unfreeze()
	rec := encodeCheckpointRecord(s.captureCheckpoint(bound))
	if err := s.cfg.WAL.AppendAll(rec); err != nil {
		s.latchFence(err)
		return fmt.Errorf("oracle: persist checkpoint: %w", err)
	}
	s.stats.checkpointed(bound)
	return nil
}

// latchFence latches the oracle into fail-fast errors when the WAL reports
// the writer was fenced: a successor has sealed the log and taken over, so
// acknowledging anything further could diverge from the promoted state.
func (s *StatusOracle) latchFence(err error) {
	if !errors.Is(err, wal.ErrFenced) {
		return
	}
	if _, latched := s.failed.Load().(error); !latched {
		s.failed.Store(fmt.Errorf("oracle: fenced by log seal: %w", err))
	}
}

// findLatestCheckpoint scans the ledger backwards for the most recent
// checkpoint record, returning its batch index and entry index within that
// batch. Only the batches after the latest checkpoint are read, so the
// scan cost — like the replay cost — is bounded by the checkpoint
// interval.
func findLatestCheckpoint(ledger wal.Ledger) (batchIdx, entryIdx int, rec []byte, found bool, err error) {
	n, err := ledger.NumBatches()
	if err != nil {
		return 0, 0, nil, false, err
	}
	for i := n - 1; i >= 0; i-- {
		batch, err := ledger.ReadBatch(i)
		if err != nil {
			return 0, 0, nil, false, err
		}
		entries, err := wal.DecodeBatch(batch)
		if err != nil {
			return 0, 0, nil, false, err
		}
		for j := len(entries) - 1; j >= 0; j-- {
			if len(entries[j]) > 0 && entries[j][0] == recCheckpoint {
				return i, j, entries[j], true, nil
			}
		}
	}
	return 0, 0, nil, false, nil
}
