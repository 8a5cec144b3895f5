package partition

import (
	"repro/internal/oracle"
)

// Backend is one status-oracle partition as the Coordinator sees it. It is
// satisfied by Local (an in-process *oracle.StatusOracle) and by
// *netsrv.Client (a partition server reached over the wire).
type Backend interface {
	// Begin draws a start timestamp. The coordinator asks partition 0
	// only: its timestamp oracle is the deployment's clock.
	Begin() (uint64, error)
	// PublishCommits commits a round's transactions at one block of fresh
	// timestamps, startTSs[k] at lo+k, inside the partition's timestamp
	// critical section, and logs them. The coordinator asks partition 0
	// only, so partition 0's commit table holds every round's commits. A
	// non-zero lo means the commits were published (an error then reports
	// that their record is not durable); lo == 0 with an error means
	// nothing was published, unless the error is ErrInDoubt.
	PublishCommits(startTSs []uint64) (lo uint64, err error)
	// PrepareBatch conflict-checks this partition's slices of a batch of
	// cross-partition transactions and parks the yes votes' rows.
	PrepareBatch([]oracle.PrepareRequest) ([]bool, error)
	// DecideBatch applies the coordinator's verdicts to prepared
	// transactions.
	DecideBatch([]oracle.Decision) error
	// CommitBatch is the partition's own batched commit path, the
	// single-partition fast path when the partition shares the
	// coordinator's timestamp oracle in-process (Config.SharedTSO).
	CommitBatch([]oracle.CommitRequest) ([]oracle.CommitResult, error)
	// QueryBatch resolves transaction statuses against this partition's
	// commit table.
	QueryBatch([]uint64) []oracle.TxnStatus
	// Abort records an explicit client abort.
	Abort(startTS uint64) error
	// Forget drops an aborted transaction's record after cleanup.
	Forget(startTS uint64)
}

// StatusResolving is implemented by backends whose status lookup reports
// transport failure (netsrv clients); in-process backends answer
// authoritatively through QueryBatch.
type StatusResolving interface {
	ResolveStatus(startTS uint64) (oracle.TxnStatus, error)
}

// Local adapts an in-process status oracle to the Backend interface.
type Local struct {
	*oracle.StatusOracle
}
