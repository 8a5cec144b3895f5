package oracle

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"
)

// This file implements the partition-side half of the two-phase
// prepare/decide commit protocol that internal/partition's Coordinator runs
// across key-sliced status-oracle partitions. The paper's scalability
// argument (§7) is that write-snapshot isolation's read-write check
// decomposes per key, so the status oracle can be partitioned; a
// transaction whose read/write set spans several partitions then needs each
// covering partition to vote on its slice of the conflict check before any
// of them may publish the commit.
//
//   - Prepare runs the conflict check on this partition's slice of the
//     request and, on a yes vote, parks the slice's rows in a prepared set:
//     until the decide arrives, any other commit whose check rows overlap a
//     prepared write row — or, under WSI, whose write rows overlap a
//     prepared read row — aborts pessimistically, because the prepared
//     transaction may still commit with a timestamp above the newcomer's
//     snapshot and the vote it cast must stay valid. Extra aborts are
//     always safe; missed conflicts never happen.
//   - Decide commits (publishing the commit-table entry and folding the
//     prepared write rows into lastCommit) or rolls back the prepared
//     state. The decide WAL record is self-contained — it carries the
//     write set — so replay applies it even when the matching prepare
//     record sits before the latest checkpoint.
//   - A prepared transaction answers Query as pending until its decide is
//     applied, so no snapshot ever observes a half-decided transaction:
//     readers resolve a transaction's fate once (per startTS), and the
//     coordinator's merged query answers committed as soon as any covering
//     partition has published.
//
// Prepared state is in-memory (per-shard refcounts plus a registry), is
// captured by checkpoints, and is rebuilt by recovery from recPrepare
// records; prepares still undecided after replay surface through InDoubt
// and are settled against the coordinator's decision log.

// WAL record kinds of the two-phase protocol.
const (
	recPrepare = 0x50 // 'P': startTS, commitTS, write set, read set
	recDecide  = 0x44 // 'D': commit flag, startTS, commitTS, write set
)

// PrepareRequest is one transaction's slice of a two-phase commit as seen
// by a single partition: the coordinator pre-filters the row sets down to
// the rows this partition owns. The coordinator draws commit timestamps
// after the votes, so it sends CommitTS as zero; the field stays in the
// prepare record and the wire payload, whose layouts predate that.
type PrepareRequest struct {
	StartTS  uint64
	CommitTS uint64
	WriteSet []RowID
	ReadSet  []RowID
}

// Decision is the coordinator's verdict on a prepared transaction.
type Decision struct {
	StartTS  uint64
	CommitTS uint64
	Commit   bool
}

// preparedTxn is the partition-local state of an in-flight two-phase
// transaction between its prepare and its decide.
type preparedTxn struct {
	commitTS uint64
	writeSet []RowID
	readSet  []RowID
	since    time.Time
}

// BeginBlock allocates n consecutive start timestamps and returns the
// lowest. The partitioned coordinator uses it over the wire to draw a
// block of commit timestamps from the timestamp authority in one round
// trip instead of one per transaction.
func (s *StatusOracle) BeginBlock(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("oracle: BeginBlock needs n > 0, got %d", n)
	}
	lo, err := s.tso.NextBlock(n, nil)
	if err != nil {
		return 0, err
	}
	s.stats.begins(int64(n))
	return lo, nil
}

// checkConflict runs the engine's conflict rule for one request under the
// already-held shard locks: the check rows (Engine.Rows) against
// lastCommit/Tmax and the prepared write rows, and the write rows against
// the prepared guard rows. Caller holds the locks of every covered shard.
func (s *StatusOracle) checkConflict(startTS uint64, writeSet, readSet []RowID) (conflict, tmaxAbort bool) {
	check, _ := s.cfg.Engine.Rows(writeSet, readSet)
	for _, r := range check {
		sh := s.shards[s.shardOf(r)]
		if tc, ok := sh.getRow(r); ok {
			if tc > startTS {
				return true, false
			}
		} else if sh.tmax > startTS {
			return true, true
		}
		// A prepared writer of a check row may still commit above this
		// snapshot; abort pessimistically rather than let the vote race
		// the decide.
		if len(sh.preparedW) != 0 && sh.preparedW[r] > 0 {
			return true, false
		}
	}
	// Committing these writes would invalidate the yes vote of any
	// prepared transaction that read them. preparedR holds guard rows
	// only, so it stays empty under SI.
	for _, w := range writeSet {
		sh := s.shards[s.shardOf(w)]
		if len(sh.preparedR) != 0 && sh.preparedR[w] > 0 {
			return true, false
		}
	}
	return false, false
}

// addPrepRefs registers a prepared transaction's write rows and guard rows
// (Engine.Rows) in the per-shard prepared sets. Caller holds the covered
// shard locks.
func (s *StatusOracle) addPrepRefs(writeSet, readSet []RowID) {
	for _, w := range writeSet {
		sh := s.shards[s.shardOf(w)]
		if sh.preparedW == nil {
			sh.preparedW = make(map[RowID]int)
		}
		sh.preparedW[w]++
	}
	_, guard := s.cfg.Engine.Rows(writeSet, readSet)
	for _, r := range guard {
		sh := s.shards[s.shardOf(r)]
		if sh.preparedR == nil {
			sh.preparedR = make(map[RowID]int)
		}
		sh.preparedR[r]++
	}
}

// dropPrepRefs releases a prepared transaction's rows. Caller holds the
// covered shard locks.
func (s *StatusOracle) dropPrepRefs(writeSet, readSet []RowID) {
	for _, w := range writeSet {
		sh := s.shards[s.shardOf(w)]
		if sh.preparedW[w] > 1 {
			sh.preparedW[w]--
		} else {
			delete(sh.preparedW, w)
		}
	}
	_, guard := s.cfg.Engine.Rows(writeSet, readSet)
	for _, r := range guard {
		sh := s.shards[s.shardOf(r)]
		if sh.preparedR[r] > 1 {
			sh.preparedR[r]--
		} else {
			delete(sh.preparedR, r)
		}
	}
}

// registerPrepared indexes a prepared transaction and its row refs.
// Caller holds the covered shard locks.
func (s *StatusOracle) registerPrepared(req *PrepareRequest, since time.Time) {
	s.prepMu.Lock()
	s.prepared[req.StartTS] = &preparedTxn{
		commitTS: req.CommitTS,
		writeSet: req.WriteSet,
		readSet:  req.ReadSet,
		since:    since,
	}
	s.prepMu.Unlock()
	s.addPrepRefs(req.WriteSet, req.ReadSet)
}

// PrepareBatch is phase one of the two-phase commit for this partition's
// slices of a batch of cross-partition transactions: each request is
// conflict-checked in order (later requests observe the prepared rows of
// earlier yes votes, exactly as a serial sequence of prepares would), yes
// votes park their rows in the prepared set, and every yes vote is
// persisted as a recPrepare record in one WAL group append before the
// votes are returned — a yes vote is a durable promise that only the
// coordinator's decide can release. votes[i] answers reqs[i]; an error is
// an infrastructure failure (WAL), after which no vote may be trusted.
func (s *StatusOracle) PrepareBatch(reqs []PrepareRequest) ([]bool, error) {
	if err, ok := s.failed.Load().(error); ok {
		return nil, err
	}
	votes := make([]bool, len(reqs))
	if len(reqs) == 0 {
		return votes, nil
	}
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()

	locks := s.lockShards(len(reqs), func(i int) ([]RowID, []RowID) {
		return reqs[i].WriteSet, reqs[i].ReadSet
	})
	now := time.Now()
	var yes []int
	for i := range reqs {
		conflict, _ := s.checkConflict(reqs[i].StartTS, reqs[i].WriteSet, reqs[i].ReadSet)
		if conflict {
			continue
		}
		s.registerPrepared(&reqs[i], now)
		votes[i] = true
		yes = append(yes, i)
	}
	s.unlockShards(locks)

	if s.cfg.WAL != nil && len(yes) > 0 {
		entries := make([][]byte, len(yes))
		for k, i := range yes {
			entries[k] = encodePrepareRecord(&reqs[i])
		}
		if err := s.cfg.WAL.AppendAll(entries...); err != nil {
			s.latchFence(err)
			// The votes are not durable; withdraw them so the
			// coordinator's abort path releases nothing that was
			// promised.
			s.rollbackPrepares(reqs, yes)
			return nil, fmt.Errorf("oracle: persist prepares: %w", err)
		}
	}
	s.stats.applyPrepares(int64(len(reqs)), int64(len(reqs)-len(yes)))
	return votes, nil
}

// rollbackPrepares withdraws the prepared state of the given yes votes
// after their WAL append failed.
func (s *StatusOracle) rollbackPrepares(reqs []PrepareRequest, yes []int) {
	locks := s.lockShards(len(yes), func(k int) ([]RowID, []RowID) {
		return reqs[yes[k]].WriteSet, reqs[yes[k]].ReadSet
	})
	for _, i := range yes {
		s.prepMu.Lock()
		delete(s.prepared, reqs[i].StartTS)
		s.prepMu.Unlock()
		s.dropPrepRefs(reqs[i].WriteSet, reqs[i].ReadSet)
	}
	s.unlockShards(locks)
}

// DecideBatch is phase two: it applies the coordinator's verdicts to this
// partition's prepared transactions. A commit folds the prepared write
// rows into lastCommit (never lowering a row's retained timestamp — decides
// of independently timestamped transactions may apply out of commit order)
// and publishes the commit-table entry; an abort releases the prepared
// rows and records the abort so readers skip the transaction's writes.
// Decisions are idempotent: re-deciding an already-settled transaction, or
// aborting one this partition never prepared (its prepare lost a vote or a
// crash), is a safe no-op on the row state. All decide records of the
// batch are persisted in one WAL group append before returning.
func (s *StatusOracle) DecideBatch(decisions []Decision) error {
	if err, ok := s.failed.Load().(error); ok {
		return err
	}
	if len(decisions) == 0 {
		return nil
	}
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()

	// Snapshot the prepared entries first so the lock set covers their rows.
	type applied struct {
		d  Decision
		pt *preparedTxn // nil when this partition holds no prepared state
	}
	apps := make([]applied, 0, len(decisions))
	s.prepMu.Lock()
	for _, d := range decisions {
		apps = append(apps, applied{d: d, pt: s.prepared[d.StartTS]})
		delete(s.prepared, d.StartTS)
	}
	s.prepMu.Unlock()

	now := time.Now()
	locks := s.lockShards(len(apps), func(i int) ([]RowID, []RowID) {
		if apps[i].pt == nil {
			return nil, nil
		}
		return apps[i].pt.writeSet, apps[i].pt.readSet
	})
	var commits, aborts int64
	var waitNanos int64
	for i := range apps {
		d, pt := apps[i].d, apps[i].pt
		if pt != nil {
			s.dropPrepRefs(pt.writeSet, pt.readSet)
			waitNanos += now.Sub(pt.since).Nanoseconds()
			if d.Commit {
				for _, w := range pt.writeSet {
					sh := s.shards[s.shardOf(w)]
					sh.updateMax(w, d.CommitTS)
				}
			}
		}
		if d.Commit {
			s.table.addCommit(d.StartTS, d.CommitTS)
			commits++
		} else {
			s.table.addAbort(d.StartTS)
			aborts++
		}
	}
	s.unlockShards(locks)

	if s.cfg.WAL != nil {
		entries := make([][]byte, len(apps))
		for i := range apps {
			var ws []RowID
			if apps[i].pt != nil {
				ws = apps[i].pt.writeSet
			}
			entries[i] = encodeDecideRecord(apps[i].d, ws)
		}
		if err := s.cfg.WAL.AppendAll(entries...); err != nil {
			s.latchFence(err)
			return fmt.Errorf("oracle: persist decides: %w", err)
		}
	}
	s.stats.applyDecides(commits, aborts, waitNanos, int64(len(apps)))
	return nil
}

// InDoubt returns the prepares currently parked with no decide — after
// recovery, the transactions whose fate only the coordinator's decision
// log knows; a checkpoint carries the same vector. Sorted by start
// timestamp for determinism.
func (s *StatusOracle) InDoubt() []PrepareRequest {
	s.prepMu.Lock()
	out := make([]PrepareRequest, 0, len(s.prepared))
	for start, pt := range s.prepared {
		out = append(out, PrepareRequest{
			StartTS:  start,
			CommitTS: pt.commitTS,
			WriteSet: pt.writeSet,
			ReadSet:  pt.readSet,
		})
	}
	s.prepMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartTS < out[j].StartTS })
	return out
}

// PreparedCount returns the number of in-flight prepared transactions.
func (s *StatusOracle) PreparedCount() int {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return len(s.prepared)
}

// applyPrepareEntry rebuilds prepared state from a recPrepare record
// (recovery replay and the hot-standby tailer). Idempotent per startTS.
func (s *StatusOracle) applyPrepareEntry(req *PrepareRequest) {
	s.prepMu.Lock()
	if _, dup := s.prepared[req.StartTS]; dup {
		s.prepMu.Unlock()
		return
	}
	s.prepMu.Unlock()
	locks := s.lockShards(1, func(int) ([]RowID, []RowID) {
		return req.WriteSet, req.ReadSet
	})
	s.registerPrepared(req, time.Now())
	s.unlockShards(locks)
}

// applyDecideEntry applies a recDecide record: the record carries the
// write set, so it is self-contained even when the matching prepare lies
// before the latest checkpoint.
func (s *StatusOracle) applyDecideEntry(d Decision, writeSet []RowID) {
	s.prepMu.Lock()
	pt := s.prepared[d.StartTS]
	delete(s.prepared, d.StartTS)
	s.prepMu.Unlock()
	var prepW, prepR []RowID
	if pt != nil {
		prepW, prepR = pt.writeSet, pt.readSet
		if len(writeSet) == 0 {
			writeSet = pt.writeSet
		}
	}
	// Two lock-set entries: the prepared rows the decide releases, and the
	// record's write rows it folds into lastCommit.
	locks := s.lockShards(2, func(i int) ([]RowID, []RowID) {
		if i == 0 {
			return prepW, prepR
		}
		return writeSet, nil
	})
	if pt != nil {
		s.dropPrepRefs(prepW, prepR)
	}
	if d.Commit {
		for _, w := range writeSet {
			s.shards[s.shardOf(w)].updateMax(w, d.CommitTS)
		}
	}
	s.unlockShards(locks)
	if d.Commit {
		s.table.addCommit(d.StartTS, d.CommitTS)
	} else {
		s.table.addAbort(d.StartTS)
	}
}

// encodePrepareRecord renders a prepare. Layout:
//
//	[1] kind | [8] startTS | [8] commitTS
//	| [4] nW | nW×[8] rows | [4] nR | nR×[8] rows
func encodePrepareRecord(req *PrepareRequest) []byte {
	b := make([]byte, 0, 1+8+8+4+8*len(req.WriteSet)+4+8*len(req.ReadSet))
	b = append(b, recPrepare)
	b = appendU64(b, req.StartTS)
	b = appendU64(b, req.CommitTS)
	b = appendRowSet(b, req.WriteSet)
	b = appendRowSet(b, req.ReadSet)
	return b
}

func decodePrepareRecord(b []byte) (*PrepareRequest, error) {
	if len(b) < 17 || b[0] != recPrepare {
		return nil, fmt.Errorf("oracle: not a prepare record")
	}
	req := &PrepareRequest{
		StartTS:  binary.BigEndian.Uint64(b[1:9]),
		CommitTS: binary.BigEndian.Uint64(b[9:17]),
	}
	rest := b[17:]
	var err error
	req.WriteSet, rest, err = parseRowSet(rest)
	if err != nil {
		return nil, err
	}
	req.ReadSet, rest, err = parseRowSet(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("oracle: prepare record length mismatch")
	}
	return req, nil
}

// encodeDecideRecord renders a decide. The write set makes the record
// self-contained for replay. Layout:
//
//	[1] kind | [1] commit | [8] startTS | [8] commitTS | [4] nW | nW×[8]
func encodeDecideRecord(d Decision, writeSet []RowID) []byte {
	b := make([]byte, 0, 2+8+8+4+8*len(writeSet))
	b = append(b, recDecide)
	if d.Commit {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU64(b, d.StartTS)
	b = appendU64(b, d.CommitTS)
	b = appendRowSet(b, writeSet)
	return b
}

func decodeDecideRecord(b []byte) (Decision, []RowID, error) {
	if len(b) < 18 || b[0] != recDecide {
		return Decision{}, nil, fmt.Errorf("oracle: not a decide record")
	}
	d := Decision{
		Commit:   b[1] == 1,
		StartTS:  binary.BigEndian.Uint64(b[2:10]),
		CommitTS: binary.BigEndian.Uint64(b[10:18]),
	}
	ws, rest, err := parseRowSet(b[18:])
	if err != nil {
		return Decision{}, nil, err
	}
	if len(rest) != 0 {
		return Decision{}, nil, fmt.Errorf("oracle: decide record length mismatch")
	}
	return d, ws, nil
}

// appendRowSet appends a row set as count + fixed 8-byte ids.
func appendRowSet(b []byte, rows []RowID) []byte {
	b = appendU32(b, uint32(len(rows)))
	for _, r := range rows {
		b = appendU64(b, uint64(r))
	}
	return b
}

func parseRowSet(b []byte) (rows []RowID, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("oracle: row set truncated")
	}
	n := binary.BigEndian.Uint32(b[:4])
	b = b[4:]
	if uint64(len(b)) < uint64(n)*8 {
		return nil, nil, fmt.Errorf("oracle: row set truncated")
	}
	if n > 0 {
		rows = make([]RowID, n)
		for i := range rows {
			rows[i] = RowID(binary.BigEndian.Uint64(b[i*8:]))
		}
	}
	return rows, b[n*8:], nil
}
