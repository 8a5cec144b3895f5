package oracle

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Stats is a snapshot of the status oracle's counters. TmaxAborts counts
// the pessimistic aborts of Algorithm 3 line 8 — transactions aborted not
// because a conflict was observed but because their snapshot predates the
// retained lastCommit window; the paper argues these are negligible when
// Tmax - Ts(txn) is much larger than the maximum commit time.
// Commits and the abort counters are per transaction regardless of how
// transactions reach the oracle: a CommitBatch of 64 requests moves the
// per-transaction counters 64 times. Batches counts CommitBatch invocations
// that carried at least one write transaction (serial Commit is a batch of
// one), and BatchSizeAvg is the mean number of write transactions per such
// batch — together they describe the batch-size distribution the coalescing
// layers achieve.
// The read side mirrors the commit side: Queries counts status lookups per
// lookup regardless of how they reach the oracle (a QueryBatch of 64 moves
// it 64 times; serial Query is a batch of one), QueryBatches counts
// QueryBatch invocations carrying at least one lookup, and
// QueryBatchSizeAvg is the mean lookups per batch — the batch-size
// distribution the read-coalescing layers achieve.
// The availability counters describe checkpointing and bounded recovery:
// Checkpoints counts checkpoint records written, LastCheckpointTS is the
// timestamp-oracle reservation bound the latest checkpoint carried (the
// epoch fence a promoted standby resumes from), and ReplayedRecords /
// RecoveryNanos report how much WAL the last Recover actually replayed and
// how long it took — with periodic checkpoints, both are bounded by the
// checkpoint interval rather than the history length.
// The partition counters describe this oracle's role in the two-phase
// partitioned commit protocol (prepare.go): Prepares counts prepare
// requests conflict-checked here (each cross-partition transaction counts
// once per covering partition), PrepareNoVotes the prepares that voted no,
// Decides the coordinator verdicts applied, DecideWaitAvg the mean
// prepare→decide latency in nanoseconds (the window a transaction's rows
// stay parked in the prepared set), and CrossPartitionRatio the fraction
// of this partition's write transactions that arrived through the
// two-phase path rather than a commit batch.
type Stats struct {
	Begins              int64
	Commits             int64
	ReadOnlyCommits     int64
	ConflictAborts      int64
	TmaxAborts          int64
	ExplicitAborts      int64
	Batches             int64
	BatchSizeAvg        float64
	Queries             int64
	QueryBatches        int64
	QueryBatchSizeAvg   float64
	Checkpoints         int64
	LastCheckpointTS    int64
	ReplayedRecords     int64
	RecoveryNanos       int64
	Prepares            int64
	PrepareNoVotes      int64
	Decides             int64
	DecideWaitAvg       float64
	CrossPartitionRatio float64
	// Allocation-discipline counters. TableLoadFactor is the live-key /
	// slot ratio of the open-addressed lastCommit table and Rehashes the
	// number of incremental growth passes it has run; together they say
	// whether the conflict-check scan lengths are healthy.
	TableLoadFactor float64
	Rehashes        int64
}

// AbortRate returns aborts / (commits + aborts), the quantity plotted in
// Figures 8 and 10. Read-only commits are included in the denominator
// because the paper's mixed workload counts them as transactions.
func (s Stats) AbortRate() float64 {
	aborts := float64(s.ConflictAborts + s.ExplicitAborts)
	total := aborts + float64(s.Commits+s.ReadOnlyCommits)
	if total == 0 {
		return 0
	}
	return aborts / total
}

type statsCollector struct {
	mu          sync.Mutex
	s           Stats
	batchTxns   int64 // write transactions across all batches
	decideNanos int64 // summed prepare→decide wait across all decides

	// The read-path counters are atomics, not mutex-guarded: status
	// lookups are the contention-free path the striped commit table
	// exists for, and a shared stats mutex would re-serialize it.
	queries      atomic.Int64
	queryBatches atomic.Int64
}

func (c *statsCollector) begin() {
	c.mu.Lock()
	c.s.Begins++
	c.mu.Unlock()
}

// applyPrepares records one PrepareBatch invocation: n prepares checked,
// noVotes of them rejected.
func (c *statsCollector) applyPrepares(n, noVotes int64) {
	c.mu.Lock()
	c.s.Prepares += n
	c.s.PrepareNoVotes += noVotes
	c.mu.Unlock()
}

// applyDecides records one DecideBatch invocation: commits and aborts
// applied, the summed prepare→decide wait, and the decision count.
func (c *statsCollector) applyDecides(commits, aborts, waitNanos, n int64) {
	c.mu.Lock()
	c.s.Commits += commits
	c.s.ConflictAborts += aborts
	c.s.Decides += n
	c.decideNanos += waitNanos
	c.mu.Unlock()
}

func (c *statsCollector) explicitAbort() {
	c.mu.Lock()
	c.s.ExplicitAborts++
	c.mu.Unlock()
}

// applyBatch records one CommitBatch invocation's whole outcome — per-
// transaction counters plus the batch-size distribution — under a single
// lock acquisition, so a batch of 64 costs one mutex pass, not 65.
// writeTxns == 0 (an all-read-only batch) does not count as a batch.
func (c *statsCollector) applyBatch(readOnly, commits, conflictAborts, tmaxAborts, writeTxns int64) {
	c.mu.Lock()
	c.s.ReadOnlyCommits += readOnly
	c.s.Commits += commits
	c.s.ConflictAborts += conflictAborts
	c.s.TmaxAborts += tmaxAborts
	if writeTxns > 0 {
		c.s.Batches++
		c.batchTxns += writeTxns
	}
	c.mu.Unlock()
}

// applyQueryBatch records one QueryBatch invocation of n lookups (serial
// Query is a batch of one).
func (c *statsCollector) applyQueryBatch(n int64) {
	c.queries.Add(n)
	c.queryBatches.Add(1)
}

// checkpointed records one written checkpoint and the TSO bound it carried.
func (c *statsCollector) checkpointed(bound uint64) {
	c.mu.Lock()
	c.s.Checkpoints++
	c.s.LastCheckpointTS = int64(bound)
	c.mu.Unlock()
}

// setRecovery records what Recover replayed: the post-checkpoint record
// count, the recovered checkpoint's TSO bound (when one was found), and
// the wall time the whole recovery took.
func (c *statsCollector) setRecovery(replayed int64, bound uint64, found bool, d time.Duration) {
	c.mu.Lock()
	c.s.ReplayedRecords = replayed
	c.s.RecoveryNanos = d.Nanoseconds()
	if found {
		c.s.LastCheckpointTS = int64(bound)
	}
	c.mu.Unlock()
}

func (c *statsCollector) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	if s.Batches > 0 {
		s.BatchSizeAvg = float64(c.batchTxns) / float64(s.Batches)
	}
	s.Queries = c.queries.Load()
	s.QueryBatches = c.queryBatches.Load()
	if s.QueryBatches > 0 {
		s.QueryBatchSizeAvg = float64(s.Queries) / float64(s.QueryBatches)
	}
	if s.Decides > 0 {
		s.DecideWaitAvg = float64(c.decideNanos) / float64(s.Decides)
	}
	if total := s.Prepares + c.batchTxns; total > 0 {
		s.CrossPartitionRatio = float64(s.Prepares) / float64(total)
	}
	return s
}

// MetricsSource adapts the oracle's counters to the self-describing metrics
// registry — the only way they leave a server. Samples can be added freely:
// the registry's length-prefixed wire encoding carries names, so no
// consumer needs a format change.
func (s *StatusOracle) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) {
		st := s.Stats()
		emit(metrics.C("oracle_begins_total", st.Begins))
		emit(metrics.C("oracle_commits_total", st.Commits))
		emit(metrics.C("oracle_readonly_commits_total", st.ReadOnlyCommits))
		emit(metrics.C("oracle_conflict_aborts_total", st.ConflictAborts))
		emit(metrics.C("oracle_tmax_aborts_total", st.TmaxAborts))
		emit(metrics.C("oracle_explicit_aborts_total", st.ExplicitAborts))
		emit(metrics.C("oracle_commit_batches_total", st.Batches))
		emit(metrics.G("oracle_commit_batch_size_avg", st.BatchSizeAvg))
		emit(metrics.C("oracle_queries_total", st.Queries))
		emit(metrics.C("oracle_query_batches_total", st.QueryBatches))
		emit(metrics.G("oracle_query_batch_size_avg", st.QueryBatchSizeAvg))
		emit(metrics.C("oracle_checkpoints_total", st.Checkpoints))
		emit(metrics.C("oracle_last_checkpoint_ts", st.LastCheckpointTS))
		emit(metrics.C("oracle_replayed_records", st.ReplayedRecords))
		emit(metrics.C("oracle_recovery_nanos", st.RecoveryNanos))
		emit(metrics.C("oracle_prepares_total", st.Prepares))
		emit(metrics.C("oracle_prepare_novotes_total", st.PrepareNoVotes))
		emit(metrics.C("oracle_decides_total", st.Decides))
		emit(metrics.G("oracle_decide_wait_avg_ns", st.DecideWaitAvg))
		emit(metrics.G("oracle_cross_partition_ratio", st.CrossPartitionRatio))
		emit(metrics.G("oracle_table_load_factor", st.TableLoadFactor))
		emit(metrics.C("oracle_table_rehashes_total", st.Rehashes))
	}
}
