package partition

import (
	"repro/internal/oracle"
	"repro/internal/tso"
)

// Backend is one status-oracle partition as the Coordinator sees it. It is
// satisfied by Local (an in-process *oracle.StatusOracle) and by
// *netsrv.Client (a partition server reached over the wire).
type Backend interface {
	// PrepareBatch conflict-checks this partition's slices of a batch of
	// cross-partition transactions and parks the yes votes' rows.
	PrepareBatch([]oracle.PrepareRequest) ([]bool, error)
	// DecideBatch applies the coordinator's verdicts to prepared
	// transactions.
	DecideBatch([]oracle.Decision) error
	// CommitAtBatch one-shot commits single-partition transactions at
	// coordinator-supplied commit timestamps.
	CommitAtBatch([]oracle.PrepareRequest) ([]oracle.CommitResult, error)
	// CommitBatch is the partition's own batched commit path, usable as
	// the single-partition fast path when the partition shares the
	// coordinator's timestamp oracle in-process.
	CommitBatch([]oracle.CommitRequest) ([]oracle.CommitResult, error)
	// QueryBatch resolves transaction statuses against this partition's
	// commit table.
	QueryBatch([]uint64) []oracle.TxnStatus
	// Abort records an explicit client abort.
	Abort(startTS uint64) error
	// Forget drops an aborted transaction's record after cleanup.
	Forget(startTS uint64)
	// SliceLoads snapshots the partition's per-slice write-load histogram
	// (oracle.Stats.SliceLoads), the rebalancer's input.
	SliceLoads() ([]int64, error)
}

// StatusResolving is implemented by backends whose status lookup reports
// transport failure (netsrv clients); in-process backends answer
// authoritatively through QueryBatch.
type StatusResolving interface {
	ResolveStatus(startTS uint64) (oracle.TxnStatus, error)
}

// RangeMigratable is implemented by backends that can ship commit-table
// state for a contiguous key range — the live-repartitioning primitives.
// Local satisfies it through the embedded *oracle.StatusOracle; the netsrv
// client forwards the calls over the wire.
type RangeMigratable interface {
	// ExportRange snapshots the partition's conflict-check state for
	// [lo, hi) (hi == 0 means end of space); it refuses while prepared
	// rows sit in the range.
	ExportRange(lo, hi uint64) (*oracle.RangeState, error)
	// ApplyRange merges an exported range into this partition, never
	// lowering retained timestamps, and logs it to the partition's WAL.
	ApplyRange(rs *oracle.RangeState) error
	// DiscardRange drops the partition's state for a range whose ownership
	// moved away, logging the drop to the WAL.
	DiscardRange(lo, hi uint64) error
}

// RoutingUpdatable is implemented by backends that hold their own routing
// table (partition servers enforcing ownership); the coordinator pushes
// each new epoch-fenced table after a live move.
type RoutingUpdatable interface {
	SetRouting(rt RoutingTable) error
}

// Local adapts an in-process status oracle to the Backend interface.
type Local struct {
	*oracle.StatusOracle
}

// SliceLoads implements Backend with the error-carrying signature the
// remote backend shares.
func (l Local) SliceLoads() ([]int64, error) { return l.StatusOracle.Stats().SliceLoads, nil }

// Clock is the shared timestamp authority: the coordinator draws start
// timestamps and commit-timestamp blocks from it. In-process it is the
// cluster's *tso.Oracle (via TSOClock); over the wire it is the timestamp
// partition's netsrv client.
type Clock interface {
	Next() (uint64, error)
	NextBlock(n int) (uint64, error)
}

// HookedClock is the optional Clock extension of an in-process timestamp
// oracle: NextBlockWith runs publish inside the oracle's critical section,
// before any later timestamp can be issued. The shared-TSO coordinator
// uses it to publish two-phase verdicts atomically with their
// commit-timestamp allocation, which is what lets it skip the begin
// barrier entirely.
type HookedClock interface {
	NextBlockWith(n int, publish func(lo, hi uint64)) (uint64, error)
}

// TSOClock adapts a *tso.Oracle to the Clock interface.
type TSOClock struct {
	*tso.Oracle
}

// NextBlock implements Clock.
func (c TSOClock) NextBlock(n int) (uint64, error) { return c.Oracle.NextBlock(n, nil) }

// NextBlockWith implements HookedClock.
func (c TSOClock) NextBlockWith(n int, publish func(lo, hi uint64)) (uint64, error) {
	return c.Oracle.NextBlock(n, publish)
}
