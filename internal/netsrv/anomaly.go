package netsrv

import (
	"time"

	"repro/internal/history"
	"repro/internal/oracle"
)

// The server-side anomaly tap records the commit decisions the server
// actually took — start timestamp, row sets, verdict — for the sampled
// fraction of transactions, and feeds them to a streaming checker. Unlike
// the client-side tap in internal/txn, the server never sees which version
// a read observed, so reads are recorded with ObsUnknown and the checker
// infers the snapshot from the commit order it has watched. The inference
// only ever under-approximates (false negatives, never false positives):
// writes are recorded before reads so the read/write intra-transaction
// order that the lost-update predicate needs is never fabricated.

// anomalyDrainInterval is how often the checker pump drains the tap rings.
const anomalyDrainInterval = 20 * time.Millisecond

// initAnomaly builds the anomaly tap and streaming checker. Called from
// the constructors so the fields are immutable before any concurrency.
func (s *Server) initAnomaly() {
	s.anomTap = history.NewTap(0)
	s.anomChecker = history.NewStreaming(history.StreamConfig{
		// The commit table's low-water mark only rises, and rises before
		// the entries below it disappear — a safe external eviction key
		// for the checker's sliding window.
		LowWater: func() uint64 {
			if so := s.oracle(); so != nil {
				return so.LowWater()
			}
			return 0
		},
		Logf: func(format string, args ...interface{}) {
			s.logf(format, args...)
		},
	})
}

// SetAnomalySampling sets the sampled fraction of transactions recorded
// into the anomaly tap, safe to flip at runtime. In-flight transactions keep
// the decision made when their commit was handled.
func (s *Server) SetAnomalySampling(frac float64) {
	s.anomTap.SetSampling(frac)
}

// AnomalyExemplars returns the streaming checker's retained anomaly
// exemplars, oldest first (a bounded ring; see history.Streaming).
func (s *Server) AnomalyExemplars() []string {
	return s.anomChecker.Exemplars()
}

// tapCommit records one decided commit request into the anomaly tap.
// Writes go before reads: the server does not know the intra-transaction
// operation order, and recording reads last means a read is never placed
// before a write it actually followed — which is the ordering the
// lost-update predicate would need to fire, so set-only taps can only
// miss that anomaly, never invent it.
func (s *Server) tapCommit(req *oracle.CommitRequest, res oracle.CommitResult) {
	tap := s.anomTap
	if !tap.Sampled(req.StartTS) {
		return
	}
	tap.Record(history.StreamEvent{Kind: history.EvBegin, Start: req.StartTS})
	for _, row := range req.WriteSet {
		tap.Record(history.StreamEvent{Kind: history.EvWrite, Start: req.StartTS, Item: uint64(row)})
	}
	for _, row := range req.ReadSet {
		tap.Record(history.StreamEvent{Kind: history.EvRead, Start: req.StartTS, Item: uint64(row), Arg: history.ObsUnknown})
	}
	if res.Committed {
		tap.Record(history.StreamEvent{Kind: history.EvCommit, Start: req.StartTS, Arg: res.CommitTS})
	} else {
		tap.Record(history.StreamEvent{Kind: history.EvAbort, Start: req.StartTS})
	}
}
