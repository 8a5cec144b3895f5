package txn

import (
	"errors"

	"repro/internal/oracle"
)

// BatchArbiter is implemented by arbiters that can decide many commit
// requests in one call (*oracle.StatusOracle in-process, *netsrv.Client over
// the wire). The commit pipeliner batches through it when available and
// falls back to serial Commit calls otherwise.
type BatchArbiter interface {
	CommitBatch([]oracle.CommitRequest) ([]oracle.CommitResult, error)
}

// DefaultCommitBatchSize caps a pipeliner batch when Config leaves
// CommitBatchSize zero.
const DefaultCommitBatchSize = 64

// ErrClientClosed reports a commit submitted after Client.Close.
var ErrClientClosed = errors.New("txn: client closed")

// CommitOutcome is the result delivered by Txn.CommitAsync. Err is nil on
// commit, ErrConflict when the oracle aborted the transaction, and an
// infrastructure error otherwise.
type CommitOutcome struct {
	Committed bool
	CommitTS  uint64
	Err       error
}

// commitPipeliner is the client-side analogue of the server's coalescer,
// built on the same shared oracle.Batcher: CommitAsync calls from any number
// of goroutines are coalesced into one CommitBatch call per cut batch (or
// serial Commits when the arbiter cannot batch), and a client can keep many
// batches in flight.
type commitPipeliner struct {
	b *oracle.Batcher[oracle.CommitRequest, oracle.CommitResult]
}

func newCommitPipeliner(arb Arbiter, maxBatch int) *commitPipeliner {
	decide := func(reqs []oracle.CommitRequest) ([]oracle.CommitResult, error) {
		if ba, ok := arb.(BatchArbiter); ok {
			return ba.CommitBatch(reqs)
		}
		results := make([]oracle.CommitResult, len(reqs))
		for i := range reqs {
			res, err := arb.Commit(reqs[i])
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	return &commitPipeliner{b: oracle.NewBatcher(decide, maxBatch)}
}

// submit parks one commit; done is invoked exactly once, from a pipeliner
// goroutine (or inline after stop), when the decision is in.
func (p *commitPipeliner) submit(req oracle.CommitRequest, done func(oracle.CommitResult, error)) {
	p.b.Submit(req, func(res oracle.CommitResult, err error) {
		if errors.Is(err, oracle.ErrBatcherStopped) {
			err = ErrClientClosed
		}
		done(res, err)
	})
}

func (p *commitPipeliner) stop() { p.b.Stop() }
