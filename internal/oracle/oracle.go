// Package oracle implements the paper's primary contribution: the
// centralized, lock-free status oracle that decides transaction commits.
//
// The status oracle receives commit requests carrying the identifiers of
// the rows a transaction wrote (and, under write-snapshot isolation, also
// the rows it read), checks them against the recent commit history, and
// either commits the transaction — assigning it a commit timestamp — or
// aborts it:
//
//   - Snapshot isolation (SI, Algorithm 1) aborts on write-write conflicts:
//     the write set is checked against lastCommit.
//   - Write-snapshot isolation (WSI, Algorithm 2) aborts on read-write
//     conflicts: the read set is checked against lastCommit, which makes
//     the resulting histories serializable (paper §4.2).
//
// Both engines share the bounded-memory scheme of Algorithm 3: lastCommit
// retains only the most recently written NR rows, and Tmax — the maximum
// commit timestamp ever evicted — pessimistically aborts transactions whose
// snapshot is older than the retained window.
//
// Read-only transactions (empty write set) commit immediately without any
// conflict check, timestamp allocation, or log write (§4.1 condition 3,
// §5.1), so they never abort and cost the status oracle nothing.
package oracle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/tso"
	"repro/internal/wal"
)

// RowID is the 8-byte row identifier submitted to the status oracle.
// Clients hash row keys; the oracle never sees keys (Appendix A estimates
// 8 bytes per identifier).
type RowID uint64

// HashRow maps a row key to its identifier using FNV-1a.
func HashRow(key string) RowID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return RowID(h)
}

// Engine selects the conflict-detection rule.
type Engine uint8

// Supported engines.
const (
	// SI detects write-write conflicts (Algorithm 1).
	SI Engine = iota
	// WSI detects read-write conflicts (Algorithm 2) and is serializable.
	WSI
)

// Rows is the engine's rule, the one place SI and WSI differ: check are
// the rows a commit request conflict-checks against lastCommit, and guard
// are the rows a prepared transaction holds against later writers. SI
// (Algorithm 1) checks the write set and guards nothing; WSI (Algorithm 2)
// checks the read set and guards it, because a later write to a prepared
// read row would invalidate the prepared yes vote.
func (e Engine) Rows(writeSet, readSet []RowID) (check, guard []RowID) {
	if e == WSI {
		return readSet, readSet
	}
	return writeSet, nil
}

func (e Engine) String() string {
	switch e {
	case SI:
		return "SI"
	case WSI:
		return "WSI"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// TableKind selects the lastCommit storage backend of a shard.
type TableKind uint8

const (
	// TableOpen (the default) stores lastCommit in an open-addressed,
	// linear-probe slot array: conflict checks are inline cache-line scans
	// with zero pointer chasing and zero steady-state allocation.
	TableOpen TableKind = iota
	// TableMap keeps the original map[RowID]uint64 shard, retained as the
	// reference implementation behind this flag; the equivalence tests
	// prove the two backends produce bit-identical decisions.
	TableMap
)

func (k TableKind) String() string {
	switch k {
	case TableOpen:
		return "open"
	case TableMap:
		return "map"
	default:
		return fmt.Sprintf("TableKind(%d)", uint8(k))
	}
}

// ParseTableKind parses "open" or "map" (the -table flag of
// cmd/oracle-server).
func ParseTableKind(s string) (TableKind, error) {
	switch s {
	case "open", "":
		return TableOpen, nil
	case "map":
		return TableMap, nil
	default:
		return 0, fmt.Errorf("oracle: unknown table kind %q (want open or map)", s)
	}
}

// Config parameterizes a status oracle.
type Config struct {
	// Engine selects SI or WSI conflict detection.
	Engine Engine
	// Table selects the lastCommit storage backend: TableOpen (default)
	// or the map-based reference implementation.
	Table TableKind
	// MaxRows bounds the number of rows retained in lastCommit
	// (Algorithm 3's NR). Zero keeps every row (no Tmax aborts).
	MaxRows int
	// MaxCommits bounds the commit table (start→commit timestamp map).
	// Zero keeps every mapping. When bounded, queries for evicted
	// transactions return StatusUnknown and clients must resolve commit
	// timestamps from the stamps on the versions (write-back mode).
	MaxCommits int
	// Shards splits lastCommit into independently locked shards.
	// 1 reproduces the paper's single critical section (§6.3); larger
	// values implement the paper's proposed future-work optimization.
	Shards int
	// WAL, when non-nil, persists every commit and abort decision before
	// it is acknowledged. Nil disables durability.
	WAL *wal.Writer
	// TSO supplies timestamps. Required.
	TSO *tso.Oracle
}

// CommitRequest is a transaction's commit submission (§5): the start
// timestamp, the identifiers of written rows, and — used only by WSI — the
// identifiers of read rows. Read-only transactions submit empty sets.
type CommitRequest struct {
	StartTS  uint64
	WriteSet []RowID
	ReadSet  []RowID
	// Span, when non-nil, is the request's lifecycle trace: the commit path
	// stamps StageWAL when the group append reports durable and StageApply
	// when the decision is published. Never encoded on the wire; owned by
	// the server's pooled handler context.
	Span *metrics.Span
}

// ReadOnly reports whether the request is from a read-only transaction.
func (r *CommitRequest) ReadOnly() bool { return len(r.WriteSet) == 0 }

// CommitResult is the status oracle's decision.
type CommitResult struct {
	Committed bool
	// CommitTS is set when Committed. For read-only transactions it
	// equals the start timestamp (their snapshot never moves, §4.1).
	CommitTS uint64
}

// Errors returned by the status oracle.
var (
	ErrNoTSO = errors.New("oracle: config requires a timestamp oracle")
)

// StatusOracle is the centralized commit arbiter. All methods are safe for
// concurrent use.
type StatusOracle struct {
	cfg    Config
	tso    *tso.Oracle
	shards []*shard
	table  *commitTable
	stats  statsCollector
	// prepared indexes in-flight two-phase transactions by start timestamp
	// (see prepare.go); the per-row refcounts live on the shards so the
	// conflict check reaches them under the locks it already holds. prepMu
	// is innermost: it is only ever taken alone or inside shard locks.
	prepMu   sync.Mutex
	prepared map[uint64]*preparedTxn
	// ckptMu excludes a checkpoint capture from every mutation's window
	// between publishing in-memory state and appending its WAL record:
	// mutators (CommitBatch, Abort) hold it shared across that whole
	// window, the checkpointer holds it exclusively, so the state a
	// checkpoint snapshots is exactly the state the WAL prefix up to the
	// checkpoint record reproduces.
	ckptMu sync.RWMutex
	// failed latches the first mid-batch infrastructure failure (see
	// CommitBatch); once set, every further commit fails fast.
	failed atomic.Value // error
}

// New creates a status oracle.
func New(cfg Config) (*StatusOracle, error) {
	if cfg.TSO == nil {
		return nil, ErrNoTSO
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s := &StatusOracle{
		cfg:      cfg,
		tso:      cfg.TSO,
		table:    newCommitTable(cfg.MaxCommits),
		prepared: make(map[uint64]*preparedTxn),
	}
	perShard := 0
	if cfg.MaxRows > 0 {
		perShard = cfg.MaxRows / cfg.Shards
		if perShard == 0 {
			perShard = 1
		}
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(perShard, cfg.Table)
	}
	return s, nil
}

// Begin allocates a start timestamp.
func (s *StatusOracle) Begin() (uint64, error) {
	ts, err := s.tso.Next()
	if err != nil {
		return 0, err
	}
	s.stats.begin()
	return ts, nil
}

// shardOf returns the shard index owning a row.
func (s *StatusOracle) shardOf(r RowID) int {
	return int(uint64(r) % uint64(len(s.shards)))
}

// Commit processes a commit request (Algorithms 1–3) as a batch of one. It
// returns the decision; an error indicates an infrastructure failure
// (timestamp oracle or WAL), not a conflict. High-throughput callers should
// prefer CommitBatch, which amortizes lock acquisition, timestamp allocation
// and WAL appends across many requests.
func (s *StatusOracle) Commit(req CommitRequest) (CommitResult, error) {
	res, err := s.CommitBatch([]CommitRequest{req})
	if err != nil {
		return CommitResult{}, err
	}
	return res[0], nil
}

// Abort records an explicit client abort so that readers skip the
// transaction's tentative writes.
func (s *StatusOracle) Abort(startTS uint64) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.Append(encodeAbortRecord(startTS)); err != nil {
			s.latchFence(err)
			return fmt.Errorf("oracle: persist abort: %w", err)
		}
	}
	s.table.addAbort(startTS)
	s.stats.explicitAbort()
	return nil
}

// Query reports the status of the transaction with the given start
// timestamp; readers use it to decide snapshot visibility (§2.2). Like
// Commit, it is a batch of one: high-volume readers should prefer
// QueryBatch, which resolves many lookups per commit-table lock pass.
func (s *StatusOracle) Query(startTS uint64) TxnStatus {
	s.stats.applyQueryBatch(1)
	return s.table.query(startTS)
}

// QueryBatch resolves the status of many transactions in one pass: each
// covered commit-table shard is read-locked once for the whole batch.
// result[i] answers startTSs[i], bit-identical to a serial Query call.
// Because the commit table is striped and queries take only read locks,
// batches of status lookups proceed concurrently with each other and with
// the batched commit path.
func (s *StatusOracle) QueryBatch(startTSs []uint64) []TxnStatus {
	return s.QueryBatchInto(startTSs, nil)
}

// QueryBatchInto is QueryBatch writing into the caller's result buffer
// (grown only when capacity is insufficient); the network server's pooled
// handler contexts recycle it so batched status resolution allocates
// nothing at steady state.
func (s *StatusOracle) QueryBatchInto(startTSs []uint64, scratch []TxnStatus) []TxnStatus {
	out := scratch
	if cap(out) < len(startTSs) {
		out = make([]TxnStatus, len(startTSs))
	}
	out = out[:len(startTSs)]
	for i := range out {
		out[i] = TxnStatus{}
	}
	if len(startTSs) == 0 {
		return out
	}
	s.table.queryBatch(startTSs, out)
	s.stats.applyQueryBatch(int64(len(startTSs)))
	return out
}

// Err returns the latched infrastructure failure: non-nil once the oracle
// has entered fail-fast mode (a mid-batch WAL loss, or a fence — a
// successor sealed the log and took over), nil while healthy. Supervisors
// poll it to notice deposition without issuing a commit.
func (s *StatusOracle) Err() error {
	err, _ := s.failed.Load().(error)
	return err
}

// Tmax returns the maximum commit timestamp evicted from lastCommit
// across all shards (0 when nothing was evicted).
func (s *StatusOracle) Tmax() uint64 {
	var max uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.tmax > max {
			max = sh.tmax
		}
		sh.mu.Unlock()
	}
	return max
}

// RetainedRows returns the number of rows currently held in lastCommit.
func (s *StatusOracle) RetainedRows() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.rowCount()
		sh.mu.Unlock()
	}
	return n
}

// LastCommitOf returns the retained last-commit timestamp of a row; ok is
// false if the row is not retained (evicted or never written).
func (s *StatusOracle) LastCommitOf(r RowID) (uint64, bool) {
	sh := s.shards[s.shardOf(r)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.getRow(r)
}

// Stats returns a snapshot of the oracle's counters. TableLoadFactor and
// Rehashes come from the live open-addressed shards (zero under TableMap).
func (s *StatusOracle) Stats() Stats {
	st := s.stats.snapshot()
	var live, slots, rehashes int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.rows != nil {
			live += int64(sh.rows.len())
			slots += int64(sh.rows.slotCount())
			rehashes += sh.rows.rehashes
		}
		sh.mu.Unlock()
	}
	if slots > 0 {
		st.TableLoadFactor = float64(live) / float64(slots)
	}
	st.Rehashes = rehashes
	return st
}

// shard is one lock-striped fragment of the lastCommit state. capacity 0
// means unbounded. Exactly one of rows (open-addressed, the default) and
// lastCommit (the map reference implementation) is non-nil; getRow/putRow/
// delRow dispatch on that, and the branch is cheaper than an interface call
// on the conflict check's inner loop.
type shard struct {
	mu         sync.Mutex
	rows       *openRowTable
	lastCommit map[RowID]uint64
	queue      []evictEntry // FIFO of insertions for NR-bounded eviction
	capacity   int
	tmax       uint64
	// Prepared-row refcounts of the two-phase protocol (prepare.go):
	// in-flight prepared writers and — under WSI — prepared readers of
	// each row. Allocated lazily so the unpartitioned path never pays
	// for them.
	preparedW map[RowID]int
	preparedR map[RowID]int
}

type evictEntry struct {
	row RowID
	ts  uint64
}

func newShard(capacity int, kind TableKind) *shard {
	sh := &shard{capacity: capacity}
	if kind == TableMap {
		sh.lastCommit = make(map[RowID]uint64)
	} else {
		sh.rows = newOpenRowTable(capacity)
	}
	return sh
}

// getRow returns a row's retained last-commit timestamp. Caller holds sh.mu.
func (sh *shard) getRow(r RowID) (uint64, bool) {
	if sh.rows != nil {
		return sh.rows.get(uint64(r))
	}
	tc, ok := sh.lastCommit[r]
	return tc, ok
}

// putRow inserts or overwrites a row's timestamp. Caller holds sh.mu.
func (sh *shard) putRow(r RowID, ts uint64) {
	if sh.rows != nil {
		sh.rows.put(uint64(r), ts)
		return
	}
	sh.lastCommit[r] = ts
}

// delRow removes a row. Caller holds sh.mu.
func (sh *shard) delRow(r RowID) {
	if sh.rows != nil {
		sh.rows.del(uint64(r))
		return
	}
	delete(sh.lastCommit, r)
}

// rowCount returns the number of retained rows. Caller holds sh.mu.
func (sh *shard) rowCount() int {
	if sh.rows != nil {
		return sh.rows.len()
	}
	return len(sh.lastCommit)
}

// forEachRow visits every retained row in unspecified order. Caller holds
// sh.mu.
func (sh *shard) forEachRow(fn func(r RowID, ts uint64)) {
	if sh.rows != nil {
		sh.rows.forEach(func(k, ts uint64) { fn(RowID(k), ts) })
		return
	}
	for r, ts := range sh.lastCommit {
		fn(r, ts)
	}
}

// resetRows clears the row storage, pre-sizing for n rows. Caller holds
// sh.mu.
func (sh *shard) resetRows(n int) {
	if sh.rows != nil {
		sh.rows = newOpenRowTable(n)
		return
	}
	sh.lastCommit = make(map[RowID]uint64, n)
}

// update sets the row's last commit timestamp and evicts the oldest rows
// beyond capacity, maintaining tmax. Caller holds sh.mu.
func (sh *shard) update(r RowID, ts uint64) {
	sh.putRow(r, ts)
	if sh.capacity <= 0 {
		return
	}
	sh.queue = append(sh.queue, evictEntry{row: r, ts: ts})
	// Hot rows leave stale queue entries behind; compact when they
	// dominate so the queue stays O(capacity).
	if len(sh.queue) > 4*sh.capacity+16 {
		live := sh.queue[:0]
		for _, e := range sh.queue {
			if cur, ok := sh.getRow(e.row); ok && cur == e.ts {
				live = append(live, e)
			}
		}
		sh.queue = live
	}
	for sh.rowCount() > sh.capacity && len(sh.queue) > 0 {
		head := sh.queue[0]
		sh.queue = sh.queue[1:]
		// Only evict if the queued entry is still the row's current
		// value; otherwise a newer update supersedes it and this
		// queue entry is stale.
		if cur, ok := sh.getRow(head.row); ok && cur == head.ts {
			sh.delRow(head.row)
			if head.ts > sh.tmax {
				sh.tmax = head.ts
			}
		}
	}
}

// updateMax is update for commits that may apply out of commit order (a
// two-phase decide can land after a later-timestamped commit of the same
// row): it never lowers a row's retained timestamp, so the conflict check's
// view of the latest committed writer stays monotone. Caller holds sh.mu.
func (sh *shard) updateMax(r RowID, ts uint64) {
	if cur, ok := sh.getRow(r); ok {
		// Equality reapplies: a write set may list a row twice, and the
		// live path's unconditional update records one eviction-queue
		// entry per occurrence — replay must match it entry for entry.
		if cur > ts {
			return
		}
	} else if ts < sh.tmax {
		// The row is absent because eviction already raised tmax past ts;
		// reinstating it at a lower timestamp would weaken the Tmax
		// pessimism and could hide the row's true (evicted, higher)
		// last-commit timestamp from the conflict check. At ts == tmax
		// the row's last commit cannot be above ts, so reinstating it is
		// exact — as the live path does when one write set lists a row
		// twice and the first occurrence was evicted in between.
		return
	}
	sh.update(r, ts)
}
