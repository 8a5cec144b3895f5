package metrics

import "time"

// Span stages: the points along a request's server-side lifecycle where a
// monotonic nanosecond timestamp is stamped. Stage deltas — not the raw
// stamps — are what feed the per-stage histograms:
//
//	StageRecv   frame fully read off the socket
//	StageAdmit  admission gate passed, stamped only when the request parked
//	            at the gate (fast-path admits wait ~0 and skip the clock)
//	StageCut    batch cut — the oracle started processing the request's
//	            batch (stamped once per batch at CommitBatch entry)
//	StageWAL    WAL group append returned durable (commit ops only)
//	StageApply  decision applied and result published
//	StageFlush  response bytes handed to the socket
const (
	StageRecv = iota
	StageAdmit
	StageCut
	StageWAL
	StageApply
	StageFlush
	NumStages
)

// spanBase anchors Nanotime: time.Since on a fixed Time reads only the
// monotonic clock, so stamps cost one clock read and no allocation.
var spanBase = time.Now()

// Nanotime returns monotonic nanoseconds since process start.
func Nanotime() int64 { return int64(time.Since(spanBase)) }

// Span is a fixed-size request lifecycle record, embedded by value in pooled
// per-request contexts so tracing allocates nothing. A stage that never
// happened (e.g. StageWAL on a query) keeps its zero stamp; delta consumers
// must check both endpoints. Not safe for concurrent stamping — each request
// owns its span.
type Span struct {
	T       [NumStages]int64
	Tenant  uint16 // admission class (clamped), valid after envelope parse
	Session uint32 // multiplexed session id, 0 for bare frames
	Gated   bool   // true if the request went through the admission gate
}

// Begin resets the span for a new request and stamps StageRecv.
func (s *Span) Begin() {
	*s = Span{}
	s.T[StageRecv] = Nanotime()
}

// Reset clears the span without reading the clock — the tracing-disabled
// path still resets, because the tenant/session fields route per-tenant
// counters and must not leak across pooled-context reuse.
func (s *Span) Reset() { *s = Span{} }

// Stamp records the current monotonic time for stage.
func (s *Span) Stamp(stage int) { s.T[stage] = Nanotime() }

// StampAt records a caller-supplied Nanotime for stage, letting batch code
// read the clock once for many spans.
func (s *Span) StampAt(stage int, now int64) { s.T[stage] = now }

// At returns the raw stamp for stage (0 = never stamped).
func (s *Span) At(stage int) int64 { return s.T[stage] }

// StampSpans stamps stage on every non-nil span in spans with a single clock
// read. The clock is only read if at least one span is present, so fully
// untraced batches pay one nil check per element.
func StampSpans(spans []*Span, stage int) {
	var now int64
	for _, sp := range spans {
		if sp == nil {
			continue
		}
		if now == 0 {
			now = Nanotime()
		}
		sp.T[stage] = now
	}
}
