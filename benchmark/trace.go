package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Spans are recorded from the benchmark's side of each layer boundary the
// public API offers: around every Txn and Coordinator call, inside a
// txn.Arbiter wrapper (the client's view of netsrv, or of the in-process
// oracle) and inside a wal.Ledger wrapper. Spans inside the program are a
// later change.

type spanKind uint8

const (
	spTxn spanKind = iota
	spTxnBegin
	spTxnRead
	spTxnPut
	spTxnCommit
	spArbBegin
	spArbCommit
	spArbQuery
	spCoordBegin
	spCoordCommit
	spLedgerAppend
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "txn.begin", "txn.read", "txn.put", "txn.commit",
	"arbiter.begin", "arbiter.commit", "arbiter.query",
	"coordinator.begin", "coordinator.commit", "wal.ledger_append",
}

// span is {name, txn id, start, end, parent}; parent indexes the same
// tracer's spans, -1 for a root. Times are metrics.Nanotime, the clock the
// server's own stage stamps use.
type span struct {
	kind       spanKind
	parent     int32
	txn        uint64
	start, end int64
}

// tracer collects one goroutine's spans. on is decided once per
// transaction, so an untraced transaction pays a predictable branch per
// boundary and nothing else.
type tracer struct {
	id    int
	on    bool
	txn   uint64
	top   int32
	spans []span
}

func (t *tracer) startTxn(on bool, txnID uint64) {
	t.on, t.txn, t.top = on, txnID, -1
}

func (t *tracer) begin(k spanKind) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, parent: t.top, txn: t.txn, start: metrics.Nanotime()})
	t.top = int32(len(t.spans) - 1)
	return t.top
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = metrics.Nanotime()
	t.top = s.parent
}

// tracedArbiter is the txn.Arbiter seam: it forwards to the real arbiter
// and records the client-observed time of each call. It is installed in
// traced and untraced runs alike so both take the same code path.
type tracedArbiter struct {
	inner txn.Arbiter
	tr    *tracer
}

func (a *tracedArbiter) Begin() (uint64, error) {
	s := a.tr.begin(spArbBegin)
	ts, err := a.inner.Begin()
	a.tr.end(s)
	return ts, err
}

func (a *tracedArbiter) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	s := a.tr.begin(spArbCommit)
	res, err := a.inner.Commit(req)
	a.tr.end(s)
	return res, err
}

func (a *tracedArbiter) Abort(startTS uint64) error { return a.inner.Abort(startTS) }

func (a *tracedArbiter) Query(startTS uint64) oracle.TxnStatus {
	s := a.tr.begin(spArbQuery)
	st := a.inner.Query(startTS)
	a.tr.end(s)
	return st
}

// QueryBatch keeps the read path on one round trip when the real arbiter
// can batch, and degrades to the serial lookups the txn layer would issue
// itself when it cannot.
func (a *tracedArbiter) QueryBatch(startTSs []uint64) []oracle.TxnStatus {
	s := a.tr.begin(spArbQuery)
	defer a.tr.end(s)
	if bq, ok := a.inner.(txn.BatchQuerier); ok {
		return bq.QueryBatch(startTSs)
	}
	out := make([]oracle.TxnStatus, len(startTSs))
	for i, ts := range startTSs {
		out[i] = a.inner.Query(ts)
	}
	return out
}

func (a *tracedArbiter) Forget(startTS uint64) {
	if f, ok := a.inner.(txn.Forgetting); ok {
		f.Forget(startTS)
	}
}

// ledgerTrace is shared by the ledger wrappers of one run: appends happen
// on WAL flush goroutines and serve a whole group commit, so their spans
// carry no transaction id and no parent.
type ledgerTrace struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// tracedLedger is the wal.Ledger seam: it stands in for a remote replica
// (the injected delay), counts what the writer hands to it and, in traced
// slices, times the append.
type tracedLedger struct {
	*wal.MemLedger
	lt      *ledgerTrace
	appends atomic.Int64
	bytes   atomic.Int64

	mu    sync.Mutex // one append at a time owns the delay alarm
	delay *alarm
}

// append models the remote write — the injected delay, then the store.
func (l *tracedLedger) append(batch []byte) (int, error) {
	l.mu.Lock()
	err := l.delay.sleep(ledgerLatency)
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return l.MemLedger.AppendBatch(batch)
}

func (l *tracedLedger) AppendBatch(batch []byte) (int, error) {
	l.appends.Add(1)
	l.bytes.Add(int64(len(batch)))
	if !l.lt.on.Load() {
		return l.append(batch)
	}
	start := metrics.Nanotime()
	n, err := l.append(batch)
	end := metrics.Nanotime()
	l.lt.mu.Lock()
	l.lt.spans = append(l.lt.spans, span{kind: spLedgerAppend, parent: -1, start: start, end: end})
	l.lt.mu.Unlock()
	return n, err
}

// spanAgg summarizes one span kind: total duration, self time (duration
// minus the part child spans cover) and the sorted durations.
type spanAgg struct {
	count     int64
	sum, self int64
	durs      []int64
}

func (a *spanAgg) mean() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

func aggregate(groups ...[]span) [numSpanKinds]spanAgg {
	var out [numSpanKinds]spanAgg
	for _, spans := range groups {
		child := make([]int64, len(spans))
		for _, s := range spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range spans {
			a := &out[s.kind]
			d := s.end - s.start
			a.count++
			a.sum += d
			a.self += d - child[i]
			a.durs = append(a.durs, d)
		}
	}
	for k := range out {
		d := out[k].durs
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return out
}

// quantile of a sorted sample by the nearest-rank rule; 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// writeSpans dumps every span as one JSON object per line. Span ids are
// "<tracer>:<index>"; the ledger's tracer is "wal".
func writeSpans(path string, tracers []*tracer, ledger []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	line := func(tid string, i int, s span) {
		parent := "null"
		if s.parent >= 0 {
			parent = fmt.Sprintf("%q", fmt.Sprintf("%s:%d", tid, s.parent))
		}
		fmt.Fprintf(w, "{\"id\":\"%s:%d\",\"name\":%q,\"txn\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s}\n",
			tid, i, spanNames[s.kind], s.txn, s.start, s.end, parent)
	}
	for _, t := range tracers {
		for i, s := range t.spans {
			line(fmt.Sprint(t.id), i, s)
		}
	}
	for i, s := range ledger {
		line("wal", i, s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
