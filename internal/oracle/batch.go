package oracle

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// stampSpans stamps stage on every traced request of a batch with a single
// clock read; a fully untraced batch pays one nil check per request and
// never touches the clock.
func stampSpans(reqs []CommitRequest, stage int) {
	var now int64
	for i := range reqs {
		if sp := reqs[i].Span; sp != nil {
			if now == 0 {
				now = metrics.Nanotime()
			}
			sp.StampAt(stage, now)
		}
	}
}

// batchPlaceholderBase is the provisional commit timestamp assigned to a
// batch entry's lastCommit updates before the batch's real timestamp block
// is allocated. Placeholders live only while the shard locks are held, are
// larger than any real timestamp or start timestamp (timestamps are issued
// from 1 and never approach 2^63), and preserve intra-batch commit order, so
// every comparison the conflict check and the eviction path perform against
// a placeholder yields the same outcome it would with the final timestamp
// lo+k.
const batchPlaceholderBase = uint64(1) << 63

// batchAbort records one conflict decision inside a batch.
type batchAbort struct {
	idx  int // index into reqs
	tmax bool
}

// singleShardLocks is the lock set of every batch on an unsharded oracle;
// callers only iterate it, so one shared instance serves all batches.
var singleShardLocks = []int{0}

// lockShards locks, in ascending index order, every shard covering the
// write rows and the engine's check and guard rows (Engine.Rows) of n
// requests, and returns the lock set for unlockShards. rows(i) yields the
// i-th request's write and read sets.
func (s *StatusOracle) lockShards(n int, rows func(i int) (writeSet, readSet []RowID)) []int {
	if len(s.shards) == 1 {
		s.shards[0].mu.Lock()
		return singleShardLocks
	}
	seen := make(map[int]struct{}, len(s.shards))
	mark := func(set []RowID) {
		for _, r := range set {
			seen[s.shardOf(r)] = struct{}{}
		}
	}
	for i := 0; i < n; i++ {
		writeSet, readSet := rows(i)
		check, guard := s.cfg.Engine.Rows(writeSet, readSet)
		mark(writeSet)
		mark(check)
		mark(guard)
	}
	locks := make([]int, 0, len(seen))
	for i := range seen {
		locks = append(locks, i)
	}
	sort.Ints(locks)
	for _, i := range locks {
		s.shards[i].mu.Lock()
	}
	return locks
}

// unlockShards releases a lock set taken by lockShards.
func (s *StatusOracle) unlockShards(locks []int) {
	for j := len(locks) - 1; j >= 0; j-- {
		s.shards[locks[j]].mu.Unlock()
	}
}

// CommitBatch decides a batch of commit requests in request order, with
// decisions identical to an equivalent sequence of serial Commit calls —
// including intra-batch conflicts: a request whose check rows overlap the
// write set of an earlier committed request in the same batch aborts, because
// that earlier commit's timestamp necessarily exceeds the later request's
// start timestamp.
//
// The batch amortizes the whole commit path: each covered shard lock is
// taken once, all commit timestamps come from one contiguous tso.NextBlock
// allocation (publishing every commit-table entry atomically with the block,
// upholding the §2 snapshot-visibility invariant batch-wide), and all commit
// records are persisted through a single WAL group append. An error reports
// an infrastructure failure (timestamp oracle or WAL) for the whole batch,
// not a conflict.
func (s *StatusOracle) CommitBatch(reqs []CommitRequest) ([]CommitResult, error) {
	return s.commitBatch(reqs, nil)
}

// CommitBatchInto is CommitBatch writing its decisions into the caller's
// result buffer (grown only when capacity is insufficient), so a caller
// that recycles the buffer — the network server's pooled handler contexts —
// pays no allocation for the decision vector. results[i] answers reqs[i].
func (s *StatusOracle) CommitBatchInto(reqs []CommitRequest, scratch []CommitResult) ([]CommitResult, error) {
	return s.commitBatch(reqs, scratch)
}

// commitBatch is the one decision kernel (Algorithm 3's check-then-publish)
// behind CommitBatch and CommitBatchInto: the commit timestamps come from
// one tso.NextBlock after the checks.
func (s *StatusOracle) commitBatch(reqs []CommitRequest, scratch []CommitResult) ([]CommitResult, error) {
	if err, ok := s.failed.Load().(error); ok {
		return nil, err
	}
	// The batch-cut stamp for every traced request in one clock read — this
	// entry point is the cut for both the server-side coalescer and direct
	// batch/single commits, so the per-request handler never reads the
	// clock for it.
	stampSpans(reqs, metrics.StageCut)
	results := scratch
	if cap(results) < len(reqs) {
		results = make([]CommitResult, len(reqs))
	}
	results = results[:len(reqs)]
	for i := range results {
		results[i] = CommitResult{}
	}
	// Stack-backed index buffers keep small batches — in particular the
	// serial Commit wrapper's batch of one — off the heap.
	var writeIdxBuf, committedBuf [16]int
	writeIdx := writeIdxBuf[:0]
	if len(reqs) > len(writeIdxBuf) {
		writeIdx = make([]int, 0, len(reqs))
	}
	var readOnly int64
	for i := range reqs {
		// Read-only fast path (§5.1), unchanged by batching: no check,
		// no timestamp, no log write.
		if reqs[i].ReadOnly() {
			readOnly++
			results[i] = CommitResult{Committed: true, CommitTS: reqs[i].StartTS}
			continue
		}
		writeIdx = append(writeIdx, i)
	}
	if len(writeIdx) == 0 {
		if readOnly > 0 {
			s.stats.applyBatch(readOnly, 0, 0, 0, 0)
		}
		stampSpans(reqs, metrics.StageApply)
		return results, nil
	}

	// Hold the checkpoint gate (shared) from the first state publication
	// to the end of the WAL append: a checkpoint can then never capture a
	// batch's effects while the batch's record would land after the
	// checkpoint record, which is what keeps checkpoint + suffix replay
	// bit-identical to a full replay.
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()

	locks := s.lockShards(len(writeIdx), func(k int) ([]RowID, []RowID) {
		return reqs[writeIdx[k]].WriteSet, reqs[writeIdx[k]].ReadSet
	})

	// Pass 1: sequential conflict checks (Algorithm 3 lines 1–11). Each
	// commit updates lastCommit before the next request is checked, so
	// later requests in the batch observe earlier intra-batch commits —
	// and the evictions they cause — exactly as a serial execution would.
	var abortsBuf [16]batchAbort
	aborts := abortsBuf[:0]
	committed := committedBuf[:0]
	if len(writeIdx) > len(committedBuf) {
		committed = make([]int, 0, len(writeIdx))
	}
	for _, i := range writeIdx {
		req := &reqs[i]
		// checkConflict applies the engine's rule and additionally aborts
		// on overlap with the prepared rows of in-flight cross-partition
		// transactions (prepare.go) — absent any prepares it is exactly
		// the original Algorithm 3 check.
		conflict, tmaxAbort := s.checkConflict(req.StartTS, req.WriteSet, req.ReadSet)
		if conflict {
			aborts = append(aborts, batchAbort{idx: i, tmax: tmaxAbort})
			continue
		}
		// A placeholder stands in until pass 2 allocates the block.
		ph := batchPlaceholderBase + uint64(len(committed))
		for _, r := range req.WriteSet {
			s.shards[s.shardOf(r)].update(r, ph)
		}
		committed = append(committed, i)
	}

	var lo uint64
	if len(committed) > 0 {
		var err error
		if lo, err = s.publishBlock(reqs, committed, locks); err != nil {
			s.unlockShards(locks)
			return nil, err
		}
	}
	s.unlockShards(locks)

	// Abort bookkeeping. When the batch also commits, the abort records
	// ride the same WAL group append below; a batch with only aborts
	// persists them best-effort (losing one in a crash is safe because
	// recovery treats unknown transactions as uncommitted).
	var tmaxAborts int64
	for _, a := range aborts {
		startTS := reqs[a.idx].StartTS
		if a.tmax {
			tmaxAborts++
		}
		if s.cfg.WAL != nil && len(committed) == 0 {
			_, _ = s.cfg.WAL.AppendAsync(encodeAbortRecord(startTS))
		}
		s.table.addAbort(startTS)
	}
	if len(committed) == 0 {
		s.stats.applyBatch(readOnly, 0, int64(len(aborts)), tmaxAborts, int64(len(writeIdx)))
		stampSpans(reqs, metrics.StageApply)
		return results, nil
	}

	// Persist before acknowledging (Appendix A): the entire batch costs one
	// group-commit latency. The record is built in a pooled buffer and the
	// entry vector on the stack when small: AppendAll frames entries into
	// the writer's own buffer before returning, so both are reusable the
	// moment it acknowledges.
	if s.cfg.WAL != nil {
		rec := walRecPool.Get().(*[]byte)
		*rec = appendCommitBatchRecord((*rec)[:0], reqs, committed, lo)
		var entriesBuf [8][]byte
		entries := append(entriesBuf[:0], *rec)
		for _, a := range aborts {
			entries = append(entries, encodeAbortRecord(reqs[a.idx].StartTS))
		}
		err := s.cfg.WAL.AppendAll(entries...)
		walRecPool.Put(rec)
		if err != nil {
			s.latchFence(err)
			s.stats.applyBatch(readOnly, 0, int64(len(aborts)), tmaxAborts, int64(len(writeIdx)))
			return nil, fmt.Errorf("oracle: persist commit batch: %w", err)
		}
		stampSpans(reqs, metrics.StageWAL)
	}
	for k, i := range committed {
		results[i] = CommitResult{Committed: true, CommitTS: lo + uint64(k)}
	}
	s.stats.applyBatch(readOnly, int64(len(committed)), int64(len(aborts)), tmaxAborts, int64(len(writeIdx)))
	stampSpans(reqs, metrics.StageApply)
	return results, nil
}

// publishBlock is pass 2 of a batch: one contiguous timestamp block for the
// whole batch, returned as its lowest timestamp. The commit-table entries are published inside the timestamp
// oracle's critical section, so no transaction can obtain a start timestamp
// above any of the batch's commit timestamps before the corresponding entry
// is queryable. Caller holds the batch's lock set.
func (s *StatusOracle) publishBlock(reqs []CommitRequest, committed, locks []int) (uint64, error) {
	lo, err := s.tso.NextBlock(len(committed), func(blo, _ uint64) {
		for k, i := range committed {
			s.table.addCommit(reqs[i].StartTS, blo+uint64(k))
		}
	})
	if err != nil {
		// The batch's placeholder updates cannot be rolled back exactly
		// (their evictions already discarded real rows), so the shard
		// state is poisoned toward aborting. A timestamp-oracle failure
		// is permanent by design; latch it so every later commit fails
		// fast instead of being silently aborted by leftover placeholders.
		s.failed.Store(err)
		return 0, err
	}
	// Replace placeholders with the real timestamps. Rows overwritten
	// later in the batch or already evicted no longer hold their
	// placeholder and are skipped.
	for k, i := range committed {
		ph := batchPlaceholderBase + uint64(k)
		ts := lo + uint64(k)
		for _, r := range reqs[i].WriteSet {
			sh := s.shards[s.shardOf(r)]
			if cur, ok := sh.getRow(r); ok && cur == ph {
				sh.putRow(r, ts)
			}
		}
	}
	for _, li := range locks {
		sh := s.shards[li]
		// Placeholder queue entries are exactly the entries this batch
		// appended: appends go to the tail, pops leave the head, and
		// compaction preserves order, so they form a contiguous tail
		// suffix — the fixup walks backward and stops at the first real
		// timestamp instead of scanning the whole O(capacity) queue.
		for qi := len(sh.queue) - 1; qi >= 0 && sh.queue[qi].ts >= batchPlaceholderBase; qi-- {
			sh.queue[qi].ts = lo + (sh.queue[qi].ts - batchPlaceholderBase)
		}
		if sh.tmax >= batchPlaceholderBase {
			sh.tmax = lo + (sh.tmax - batchPlaceholderBase)
		}
	}
	return lo, nil
}

// walRecPool recycles commit-batch WAL record buffers: the WAL writer
// frames entries into its own buffer before AppendAll returns, so a record
// buffer is reusable as soon as the append is acknowledged.
var walRecPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 1024); return &b }}

// appendCommitBatchRecord renders the committed subset of a batch as one
// recCommitBatch WAL record, so an entire batch costs a single group-commit
// append; reqs[committed[k]] commits at lo+k.
// Layout:
//
//	[1] kind | [4] count | count × ( [8] startTS | [8] commitTS | [4] n | n×[8] row ids )
func appendCommitBatchRecord(b []byte, reqs []CommitRequest, committed []int, lo uint64) []byte {
	b = append(b, recCommitBatch)
	b = appendU32(b, uint32(len(committed)))
	for k, i := range committed {
		b = appendU64(b, reqs[i].StartTS)
		b = appendU64(b, lo+uint64(k))
		b = appendRowSet(b, reqs[i].WriteSet)
	}
	return b
}
