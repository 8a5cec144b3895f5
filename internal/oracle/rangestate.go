package oracle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// This file implements the range migration primitives of elastic
// repartitioning (internal/partition's rebalancer): a donor partition
// exports the conflict state of a key range, the target applies it, and the
// donor discards it — each step durably logged, so a crash on either side
// replays to a state at least as pessimistic as the live one. Commit-table
// entries (start→commit timestamp) never migrate: status queries fan out to
// every partition and fall back to the coordinator's decision log, so the
// donor keeps answering for history it arbitrated.

// WAL record kinds of the range migration protocol.
const (
	recRangeApply   = 0x4D // 'M': lo, hi, tmax, migrated lastCommit rows
	recRangeDiscard = 0x58 // 'X': lo, hi
)

// RangeRow is one retained lastCommit entry inside a RangeState.
type RangeRow struct {
	Row RowID
	TS  uint64
}

// RangeState is the migratable conflict state of the key range [Lo, Hi):
// the retained lastCommit rows inside the range and the donor's Tmax, which
// bounds the commit timestamps of rows the donor already evicted. Hi == 0
// means the end of the row-id space (the range is unbounded above), so the
// top of the 64-bit space is expressible.
type RangeState struct {
	Lo, Hi uint64
	Tmax   uint64
	Rows   []RangeRow
}

// ErrRangePrepared reports an export or discard attempted while in-flight
// two-phase transactions still hold prepared rows inside the range; the
// caller retries after their decides land.
var ErrRangePrepared = errors.New("oracle: range holds prepared two-phase rows; retry after decides land")

// rowInRange reports whether r falls in [lo, hi); hi == 0 means the end of
// the row-id space.
func rowInRange(r RowID, lo, hi uint64) bool {
	return uint64(r) >= lo && (hi == 0 || uint64(r) < hi)
}

// lockAllShards takes every shard lock in index order (the same order the
// batch paths use), freezing commits, prepares and decides for the
// operation's duration.
func (s *StatusOracle) lockAllShards() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *StatusOracle) unlockAllShards() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// preparedInRange reports whether any in-flight prepared transaction holds
// a row inside [lo, hi). Caller holds all shard locks.
func (s *StatusOracle) preparedInRange(lo, hi uint64) bool {
	for _, sh := range s.shards {
		for r := range sh.preparedW {
			if rowInRange(r, lo, hi) {
				return true
			}
		}
		for r := range sh.preparedR {
			if rowInRange(r, lo, hi) {
				return true
			}
		}
	}
	return false
}

// ExportRange snapshots the conflict state of [lo, hi) for migration: the
// retained lastCommit rows inside the range (sorted by row id for
// determinism) and this oracle's Tmax. The exported Tmax is the maximum
// over all shards, not just the range's rows: eviction folds a row's
// timestamp into its shard's Tmax without remembering the row, so any row
// of the range may have been evicted at up to that bound and the target
// must adopt it to stay pessimistically correct.
//
// Export fails with ErrRangePrepared while prepared two-phase rows sit in
// the range — a prepared vote is a promise against the donor's row state
// and must be decided before that state moves. The caller (the rebalancer)
// retries after the in-flight decides land. Export itself mutates nothing.
func (s *StatusOracle) ExportRange(lo, hi uint64) (*RangeState, error) {
	s.lockAllShards()
	defer s.unlockAllShards()
	if s.preparedInRange(lo, hi) {
		return nil, ErrRangePrepared
	}
	rs := &RangeState{Lo: lo, Hi: hi}
	for _, sh := range s.shards {
		if sh.tmax > rs.Tmax {
			rs.Tmax = sh.tmax
		}
		sh.forEachRow(func(r RowID, ts uint64) {
			if rowInRange(r, lo, hi) {
				rs.Rows = append(rs.Rows, RangeRow{Row: r, TS: ts})
			}
		})
	}
	sort.Slice(rs.Rows, func(i, j int) bool { return rs.Rows[i].Row < rs.Rows[j].Row })
	return rs, nil
}

// ApplyRange adopts a migrated range's conflict state: the rows fold into
// lastCommit via updateMax (never lowering a retained timestamp this
// partition already holds), then every shard's Tmax is raised to the
// donor's bound. Order matters — rows first, Tmax second — because
// updateMax refuses to reinstate an absent row below Tmax; raising
// Tmax first would silently drop the migrated rows. The step is durably
// logged as one recRangeApply record, so the target's recovery (and its
// hot standby, which tails the same WAL) rebuilds the adopted state.
//
// Applying is idempotent and safe to repeat after a partial migration: a
// second apply of the same state is absorbed by updateMax and the monotone
// Tmax raise.
func (s *StatusOracle) ApplyRange(rs *RangeState) error {
	if err, ok := s.failed.Load().(error); ok {
		return err
	}
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.applyRangeState(rs)
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.Append(encodeRangeApplyRecord(rs)); err != nil {
			s.latchFence(err)
			return fmt.Errorf("oracle: persist range apply: %w", err)
		}
	}
	return nil
}

// applyRangeState is ApplyRange's in-memory half, shared with WAL replay.
func (s *StatusOracle) applyRangeState(rs *RangeState) {
	for _, rr := range rs.Rows {
		sh := s.shards[s.shardOf(rr.Row)]
		sh.mu.Lock()
		sh.updateMax(rr.Row, rr.TS)
		sh.mu.Unlock()
	}
	if rs.Tmax > 0 {
		for _, sh := range s.shards {
			sh.mu.Lock()
			if rs.Tmax > sh.tmax {
				sh.tmax = rs.Tmax
			}
			sh.mu.Unlock()
		}
	}
}

// DiscardRange drops the donor's retained lastCommit rows inside [lo, hi)
// after the target has durably applied them. Tmax is left untouched: the
// donor's pessimism bound still covers everything it ever evicted, and the
// range's future traffic is the target's business. Refuses with
// ErrRangePrepared while prepared rows sit in the range. Durably logged as
// one recRangeDiscard record.
//
// Crash ordering: apply-on-target is logged before discard-on-donor, so a
// crash between the two leaves the range's rows on both sides — a superset
// of the live state, which only makes conflict checks more pessimistic,
// never blind.
func (s *StatusOracle) DiscardRange(lo, hi uint64) error {
	if err, ok := s.failed.Load().(error); ok {
		return err
	}
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if err := s.discardRangeState(lo, hi, true); err != nil {
		return err
	}
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.Append(encodeRangeDiscardRecord(lo, hi)); err != nil {
			s.latchFence(err)
			return fmt.Errorf("oracle: persist range discard: %w", err)
		}
	}
	return nil
}

// discardRangeState is DiscardRange's in-memory half, shared with WAL
// replay (which skips the prepared check: by the time a discard record was
// logged, the live path had already proven the range prepare-free).
func (s *StatusOracle) discardRangeState(lo, hi uint64, checkPrepared bool) error {
	s.lockAllShards()
	defer s.unlockAllShards()
	if checkPrepared && s.preparedInRange(lo, hi) {
		return ErrRangePrepared
	}
	var doomed []RowID
	for _, sh := range s.shards {
		doomed = doomed[:0]
		sh.forEachRow(func(r RowID, ts uint64) {
			if rowInRange(r, lo, hi) {
				doomed = append(doomed, r)
			}
		})
		for _, r := range doomed {
			sh.delRow(r)
		}
		if len(doomed) > 0 && len(sh.queue) > 0 {
			// Purge the evict queue's entries for the dropped rows so a
			// later reinsertion of the same row cannot be evicted by a
			// stale entry, and the queue length stays proportional to the
			// retained rows.
			live := sh.queue[:0]
			for _, e := range sh.queue {
				if !rowInRange(e.row, lo, hi) {
					live = append(live, e)
				}
			}
			sh.queue = live
		}
	}
	return nil
}

// encodeRangeApplyRecord renders a migrated range state. Layout:
//
//	[1] kind | [8] lo | [8] hi | [8] tmax | [4] n | n × ( [8] row | [8] ts )
func encodeRangeApplyRecord(rs *RangeState) []byte {
	b := make([]byte, 0, 1+8+8+8+4+16*len(rs.Rows))
	b = append(b, recRangeApply)
	b = appendU64(b, rs.Lo)
	b = appendU64(b, rs.Hi)
	b = appendU64(b, rs.Tmax)
	b = appendU32(b, uint32(len(rs.Rows)))
	for _, rr := range rs.Rows {
		b = appendU64(b, uint64(rr.Row))
		b = appendU64(b, rr.TS)
	}
	return b
}

func decodeRangeApplyRecord(b []byte) (*RangeState, error) {
	if len(b) < 1+8+8+8+4 || b[0] != recRangeApply {
		return nil, fmt.Errorf("oracle: not a range-apply record")
	}
	rs := &RangeState{
		Lo:   binary.BigEndian.Uint64(b[1:9]),
		Hi:   binary.BigEndian.Uint64(b[9:17]),
		Tmax: binary.BigEndian.Uint64(b[17:25]),
	}
	n := binary.BigEndian.Uint32(b[25:29])
	rest := b[29:]
	if uint64(len(rest)) != uint64(n)*16 {
		return nil, fmt.Errorf("oracle: range-apply record length mismatch")
	}
	rs.Rows = make([]RangeRow, n)
	for i := range rs.Rows {
		rs.Rows[i] = RangeRow{
			Row: RowID(binary.BigEndian.Uint64(rest[i*16:])),
			TS:  binary.BigEndian.Uint64(rest[i*16+8:]),
		}
	}
	return rs, nil
}

// encodeRangeDiscardRecord renders a range discard. Layout:
//
//	[1] kind | [8] lo | [8] hi
func encodeRangeDiscardRecord(lo, hi uint64) []byte {
	b := make([]byte, 0, 1+8+8)
	b = append(b, recRangeDiscard)
	b = appendU64(b, lo)
	b = appendU64(b, hi)
	return b
}

func decodeRangeDiscardRecord(b []byte) (lo, hi uint64, err error) {
	if len(b) != 17 || b[0] != recRangeDiscard {
		return 0, 0, fmt.Errorf("oracle: not a range-discard record")
	}
	return binary.BigEndian.Uint64(b[1:9]), binary.BigEndian.Uint64(b[9:17]), nil
}

// EncodeRangeState renders a RangeState for the wire (the partition
// server's export/apply ops); the encoding is the WAL record itself, so
// both sides share one codec.
func EncodeRangeState(rs *RangeState) []byte { return encodeRangeApplyRecord(rs) }

// DecodeRangeState parses a wire-encoded RangeState.
func DecodeRangeState(b []byte) (*RangeState, error) { return decodeRangeApplyRecord(b) }
