package netsrv

import (
	"errors"
	"time"

	"repro/internal/oracle"
)

// ErrServerClosed reports a request submitted while the server shuts down.
var ErrServerClosed = errors.New("netsrv: server closed")

// coalescer adapts the shared oracle.Batcher as the server-side commit
// coalescer: concurrent one-request commit-batch frames (each handled by its
// own goroutine) are merged into oracle batches, so clients that commit one
// transaction at a time transparently ride the batched commit path.
type coalescer struct {
	b *oracle.Batcher[oracle.CommitRequest, oracle.CommitResult]
}

func newCoalescer(so *oracle.StatusOracle, maxBatch int) *coalescer {
	// The oracle stamps StageCut on every traced request at CommitBatch
	// entry, so the decide hook adds no tracing work of its own.
	decide := func(reqs []oracle.CommitRequest) ([]oracle.CommitResult, error) {
		return so.CommitBatch(reqs)
	}
	return &coalescer{b: oracle.NewBatcher(decide, maxBatch)}
}

// submit parks one commit request in the accumulation loop and waits for its
// batch's decision. A non-zero deadline travels into the batcher: a request
// that expires while parked is dropped at batch-cut time with
// oracle.ErrExpired instead of occupying a decide slot.
func (c *coalescer) submit(req oracle.CommitRequest, deadline time.Time) (oracle.CommitResult, error) {
	res, err := c.b.SubmitWaitDeadline(req, deadline)
	if errors.Is(err, oracle.ErrBatcherStopped) {
		return oracle.CommitResult{}, ErrServerClosed
	}
	return res, err
}

// stop shuts the loop down. The server calls it only after every connection
// handler has returned, so no submitter can be left waiting.
func (c *coalescer) stop() { c.b.Stop() }
