// Package wal implements the replicated, batched write-ahead log that the
// status oracle persists its commit decisions into. It stands in for Apache
// BookKeeper (paper, Appendix A): every state change of the status oracle is
// appended to a log replicated across multiple remote storage devices, and
// appends are group-committed. The paper cut a batch at 1 KB or after 5 ms,
// whichever came first; this writer cuts one the moment the previous append
// has been answered (at once when idle), so the busy log is the batch timer
// and there is nothing to tune.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Ledger is one replica of the log (a "bookie" in BookKeeper terms).
// AppendBatch must be safe for concurrent use with ReadBatch.
type Ledger interface {
	// AppendBatch durably stores one batch and returns its index. The
	// batch slice is only valid for the duration of the call — the writer
	// recycles batch buffers — so an implementation that retains bytes
	// must copy them.
	AppendBatch(batch []byte) (int, error)
	// NumBatches returns the number of stored batches.
	NumBatches() (int, error)
	// ReadBatch returns the i-th stored batch.
	ReadBatch(i int) ([]byte, error)
}

// Errors returned by the writer and the fencing layer.
var (
	ErrClosed       = errors.New("wal: writer closed")
	ErrQuorumFailed = errors.New("wal: quorum of ledgers failed")
	ErrCorrupt      = errors.New("wal: corrupt entry")
	// ErrSealed is returned by a sealed ledger's AppendBatch. Sealing is
	// the BookKeeper-style fence an election winner applies before it
	// serves: no writer can extend a sealed ledger.
	ErrSealed = errors.New("wal: ledger sealed")
	// ErrFenced is returned by a writer that has observed a seal on any
	// of its ledgers. The writer latches permanently: a seal means a
	// successor has taken over the log, so acknowledging further appends
	// could double-ack a commit the successor never saw.
	ErrFenced = errors.New("wal: writer fenced by ledger seal")
	// ErrEpochSuperseded is returned by SealEpoch when the ledger already
	// carries a seal at an equal or higher epoch: another candidate won
	// that epoch's election on this replica. Because each ledger accepts a
	// given epoch at most once, two candidates proposing the same epoch can
	// never both assemble a quorum of fresh seals — the seal itself is the
	// election's serialization point.
	ErrEpochSuperseded = errors.New("wal: seal epoch superseded")
)

// EpochSealer is implemented by ledgers that support fencing. The seal
// carries an election epoch, the fencing token of the self-healing oracle
// group: a candidate for epoch e fences the previous epoch's ledgers by
// sealing them at e, and the ledger arbitrates — a proposal at or below
// the current seal epoch fails with ErrEpochSuperseded.
type EpochSealer interface {
	// SealEpoch fences the ledger with an epoch-numbered seal: every
	// subsequent AppendBatch fails with ErrSealed. It succeeds only when
	// epoch is strictly higher than the ledger's current seal epoch (an
	// unsealed ledger counts as epoch 0), so each epoch is granted at most
	// once per ledger; otherwise ErrEpochSuperseded.
	SealEpoch(epoch uint64) error
	// SealedEpoch returns the epoch of the current seal: 0 when the ledger
	// is unsealed, or is a file sealed by an older binary without an epoch.
	SealedEpoch() uint64
}

// SealEpoch fences a ledger with an epoch-numbered seal. A ledger that
// does not implement EpochSealer cannot be fenced and returns an error.
func SealEpoch(l Ledger, epoch uint64) error {
	es, ok := l.(EpochSealer)
	if !ok {
		return fmt.Errorf("wal: ledger %T is not sealable", l)
	}
	return es.SealEpoch(epoch)
}

// Config parameterizes replication. Batching has no parameters: the writer
// is self-clocked (see Writer).
type Config struct {
	// Quorum is the number of ledgers that must acknowledge a batch
	// before its entries are considered durable. Zero means all.
	Quorum int
	// Deprecated: ignored, no size cuts a batch; only benchmark/ still sets it.
	BatchBytes int
	// Deprecated: ignored, no timer cuts a batch; only benchmark/ still sets it.
	BatchDelay time.Duration
}

// pendingWaiter is one Append/AppendAll/Flush/Close call parked on a batch;
// its done channel receives exactly one value when the batch's fate is
// known. A barrier waiter (Flush, Close) carries no entries and is released
// only once every replica has answered, not at quorum.
type pendingWaiter struct {
	done    chan error
	barrier bool
}

// donePool recycles the waiter channels of the blocking calls, which drain
// their channel before returning it.
var donePool = sync.Pool{New: func() interface{} { return make(chan error, 1) }}

// Writer batches entries and replicates each batch to a set of ledgers.
// Append blocks until the entry is durable on a quorum of ledgers.
//
// Group commit is self-clocked: the appender that finds the writer idle
// starts the flusher, which takes everything buffered, replicates it, and
// takes again until it finds nothing — so a batch is exactly what arrived
// while the previous one was in flight, an idle writer flushes at once, and
// there is no timer, no size trigger and no resident goroutine. One flusher
// at a time makes cut order = ledger order structural.
//
// Entries are framed (length + CRC) directly into the accumulating batch
// buffer at enqueue time — the framing IS the copy. The two batch buffers
// and waiter slices alternate between accumulating and in flight, the
// blocking calls' waiter channels are pooled and the per-replica append
// closures are built once, so a steady rate of Append/AppendAll/Flush runs
// the whole pipeline with zero allocation. AppendAsync allocates the one
// channel it hands to its caller.
type Writer struct {
	cfg     Config
	ledgers []Ledger

	mu       sync.Mutex
	buf      []byte // framed entries of the accumulating batch
	waiters  []pendingWaiter
	flushing bool // a flushLoop goroutine is running; set and cleared under mu
	closed   bool
	fenced   bool // a flush observed ErrSealed; every later append fails fast

	// The buffers of the last flushed batch, swapped in at the next take.
	spareBuf     []byte
	spareWaiters []pendingWaiter

	// Flusher-only state: the batch in flight, one append closure per
	// ledger reading it, and the channel their results come back on.
	inflight  []byte
	replicate []func()
	errs      chan error

	// Lifetime counters feeding MetricsSource.
	entriesAppended atomic.Int64
	batchesFlushed  atomic.Int64
	bytesFlushed    atomic.Int64
	quorumFailures  atomic.Int64
}

// Fenced reports whether the writer has observed a seal on any ledger and
// latched into fail-fast mode.
func (w *Writer) Fenced() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fenced
}

// NewWriter creates a writer replicating to the given ledgers.
func NewWriter(cfg Config, ledgers ...Ledger) (*Writer, error) {
	if len(ledgers) == 0 {
		return nil, errors.New("wal: need at least one ledger")
	}
	if cfg.Quorum <= 0 || cfg.Quorum > len(ledgers) {
		cfg.Quorum = len(ledgers)
	}
	w := &Writer{cfg: cfg, ledgers: ledgers, errs: make(chan error, len(ledgers))}
	for _, l := range ledgers {
		w.replicate = append(w.replicate, func() {
			_, err := l.AppendBatch(w.inflight)
			w.errs <- err
		})
	}
	return w, nil
}

// Append stores one entry and blocks until it is durable on a quorum of
// ledgers (or the writer fails).
func (w *Writer) Append(entry []byte) error { return w.AppendAll(entry) }

// AppendAsync enqueues one entry and returns a channel that reports its
// durability. The channel receives exactly one value. The entry is framed
// into the batch buffer before AppendAsync returns, so the caller may reuse
// its buffer immediately.
func (w *Writer) AppendAsync(entry []byte) (<-chan error, error) {
	done := make(chan error, 1)
	if err := w.enqueue(done, entry); err != nil {
		return nil, err
	}
	return done, nil
}

// AppendAll enqueues a group of entries under a single lock acquisition and
// blocks until every entry is durable on a quorum of ledgers; the group
// never straddles two batches. The status oracle's batched commit path uses
// it to persist a commit batch and its accompanying abort records as one
// group commit. The entries are framed in place into the batch buffer
// before the call blocks, so the caller's buffers (typically pooled record
// scratch) are reusable on return.
func (w *Writer) AppendAll(entries ...[]byte) error {
	if len(entries) == 0 {
		return nil
	}
	done := donePool.Get().(chan error)
	err := w.enqueue(done, entries...)
	if err == nil {
		err = <-done
	}
	donePool.Put(done)
	return err
}

// enqueue frames the entries into the accumulating batch and parks done on
// it.
func (w *Writer) enqueue(done chan error, entries ...[]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.fenced {
		return ErrFenced
	}
	for _, entry := range entries {
		w.buf = appendEntryFrame(w.buf, entry)
	}
	w.entriesAppended.Add(int64(len(entries)))
	w.parkLocked(pendingWaiter{done: done})
	return nil
}

// parkLocked adds a waiter to the accumulating batch and, if the writer is
// idle, starts the flusher. Caller holds w.mu.
func (w *Writer) parkLocked(pw pendingWaiter) {
	w.waiters = append(w.waiters, pw)
	if !w.flushing {
		w.flushing = true
		go w.flushLoop()
	}
}

// flushLoop is the flusher: it takes everything buffered, flushes it, and
// takes again. It exits only when it finds no waiters, clearing flushing
// under the same w.mu hold, so no appender can park unseen.
func (w *Writer) flushLoop() {
	const maxRetained = 1 << 20 // larger batch buffers go to the GC
	w.mu.Lock()
	for len(w.waiters) > 0 {
		batch, waiters, fenced := w.buf, w.waiters, w.fenced
		w.buf, w.waiters = w.spareBuf[:0], w.spareWaiters[:0]
		w.mu.Unlock()
		sealed := w.flush(batch, waiters, fenced)
		w.mu.Lock()
		w.fenced = w.fenced || sealed
		w.spareBuf, w.spareWaiters = batch, waiters
		if cap(batch) > maxRetained {
			w.spareBuf = nil
		}
	}
	w.flushing = false
	w.mu.Unlock()
}

const frameOverhead = 8 // 4-byte length + 4-byte CRC32 per entry

// appendEntryFrame frames one entry as the batch payload stores it
// (length, CRC32, payload) — the single definition of the frame layout,
// shared by the live writer and the round-trip tests.
func appendEntryFrame(buf, entry []byte) []byte {
	var hdr [frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(entry)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(entry))
	buf = append(buf, hdr[:]...)
	return append(buf, entry...)
}

// DecodeBatch splits a batch payload back into entries, verifying CRCs.
func DecodeBatch(batch []byte) ([][]byte, error) {
	var entries [][]byte
	for len(batch) > 0 {
		if len(batch) < frameOverhead {
			return nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
		}
		n := binary.BigEndian.Uint32(batch[0:4])
		sum := binary.BigEndian.Uint32(batch[4:8])
		batch = batch[frameOverhead:]
		if uint32(len(batch)) < n {
			return nil, fmt.Errorf("%w: truncated entry body", ErrCorrupt)
		}
		data := batch[:n]
		if crc32.ChecksumIEEE(data) != sum {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		entries = append(entries, data)
		batch = batch[n:]
	}
	return entries, nil
}

// flush replicates one pre-framed batch to all ledgers, acknowledges the
// appenders once a quorum has accepted it and the barrier waiters once
// every replica has answered, and reports whether any replica was sealed.
// It returns only then: a straggler append racing into the next batch would
// reorder that ledger's batches (breaking Replay), and Flush/Close must be
// true barriers so recovery never reads a ledger with an append in flight.
// A batch cut after the writer latched fenced fails without touching the
// ledgers; one holding only barriers has nothing to replicate.
func (w *Writer) flush(batch []byte, waiters []pendingWaiter, fenced bool) (sealed bool) {
	acked := false
	ack := func(result error) {
		for _, pw := range waiters {
			if !pw.barrier {
				pw.done <- result
			}
		}
		acked = true
	}
	switch {
	case fenced:
		ack(ErrFenced)
	case len(batch) > 0:
		w.batchesFlushed.Add(1)
		w.bytesFlushed.Add(int64(len(batch)))
		w.inflight = batch
		for _, appendTo := range w.replicate {
			go appendTo()
		}
		acks, fails, need := 0, 0, w.cfg.Quorum
		var firstErr error
		for range w.ledgers {
			err := <-w.errs
			if err == nil {
				acks++
			} else {
				fails++
				sealed = sealed || errors.Is(err, ErrSealed)
				if firstErr == nil {
					firstErr = err
				}
			}
			if acked {
				continue
			}
			switch {
			case acks >= need:
				ack(nil)
			case fails <= len(w.ledgers)-need: // quorum still undecided
			case sealed:
				// A seal on any replica means a successor has fenced the
				// log; report it as such so the oracle can latch rather
				// than treat it as a transient quorum loss. The writer
				// latches first, so an appender told ErrFenced never
				// finds Fenced still false.
				w.mu.Lock()
				w.fenced = true
				w.mu.Unlock()
				w.quorumFailures.Add(1)
				ack(fmt.Errorf("%w: %d/%d acks", ErrFenced, acks, need))
			default:
				w.quorumFailures.Add(1)
				ack(fmt.Errorf("%w: %d/%d acks: %v", ErrQuorumFailed, acks, need, firstErr))
			}
		}
	}
	for _, pw := range waiters {
		if pw.barrier {
			pw.done <- nil
		}
	}
	return sealed
}

// MetricsSource adapts the writer's group-commit counters to the metrics
// registry: entries framed, batches and bytes flushed, and quorum failures.
func (w *Writer) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) {
		emit(metrics.C("wal_entries_appended_total", w.entriesAppended.Load()))
		emit(metrics.C("wal_batches_flushed_total", w.batchesFlushed.Load()))
		emit(metrics.C("wal_bytes_flushed_total", w.bytesFlushed.Load()))
		emit(metrics.C("wal_quorum_failures_total", w.quorumFailures.Load()))
		flushed := w.batchesFlushed.Load()
		if flushed > 0 {
			emit(metrics.G("wal_batch_bytes_avg", float64(w.bytesFlushed.Load())/float64(flushed)))
		}
	}
}

// Flush waits until everything buffered or in flight has been answered by
// every replica. It rides the flusher as a barrier waiter.
func (w *Writer) Flush() { w.barrier(false) }

// Close flushes buffered entries and marks the writer closed.
func (w *Writer) Close() error {
	w.barrier(true)
	return nil
}

func (w *Writer) barrier(closing bool) {
	done := donePool.Get().(chan error)
	w.mu.Lock()
	w.closed = w.closed || closing
	w.parkLocked(pendingWaiter{done: done, barrier: true})
	w.mu.Unlock()
	<-done
	donePool.Put(done)
}

// Replay feeds every entry stored in the ledger, in append order, to fn.
// It is the recovery path of the status oracle and the timestamp oracle.
func Replay(l Ledger, fn func(entry []byte) error) error {
	return ReplayRange(l, 0, 0, fn)
}

// ReplayRange feeds the ledger's entries to fn starting at batch fromBatch,
// additionally skipping the first skipEntries entries of that batch. The
// status oracle's bounded recovery uses it to replay only the suffix after
// the latest checkpoint instead of the whole log.
func ReplayRange(l Ledger, fromBatch, skipEntries int, fn func(entry []byte) error) error {
	n, err := l.NumBatches()
	if err != nil {
		return err
	}
	for i := fromBatch; i < n; i++ {
		batch, err := l.ReadBatch(i)
		if err != nil {
			return err
		}
		entries, err := DecodeBatch(batch)
		if err != nil {
			return err
		}
		if i == fromBatch && skipEntries > 0 {
			if skipEntries >= len(entries) {
				continue
			}
			entries = entries[skipEntries:]
		}
		for _, e := range entries {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Refresher is implemented by ledgers whose backing storage can grow behind
// the in-memory index (a FileLedger opened read-only on a file another
// process is appending to). A Tailer calls it when it runs out of batches.
type Refresher interface {
	// Refresh re-indexes batches appended since the last scan.
	Refresh() error
}

// Tailer reads a ledger incrementally: each Next call returns the next
// entry in append order, reporting ok=false once it has caught up with the
// ledger's current end. A hot-standby status oracle polls a Tailer to keep
// a shadow commit table current, so promotion only has to drain the final
// few batches.
type Tailer struct {
	l       Ledger
	next    int // next batch index to read
	entries [][]byte
	idx     int
}

// NewTailer starts tailing at the beginning of the ledger.
func NewTailer(l Ledger) *Tailer { return &Tailer{l: l} }

// Next returns the next entry. ok is false when the tailer has consumed
// every entry currently in the ledger; calling Next again later picks up
// batches appended in the meantime.
func (t *Tailer) Next() (entry []byte, ok bool, err error) {
	refreshed := false
	for {
		if t.idx < len(t.entries) {
			e := t.entries[t.idx]
			t.idx++
			return e, true, nil
		}
		n, err := t.l.NumBatches()
		if err != nil {
			return nil, false, err
		}
		if t.next >= n {
			if r, canRefresh := t.l.(Refresher); canRefresh && !refreshed {
				if err := r.Refresh(); err != nil {
					return nil, false, err
				}
				refreshed = true
				continue
			}
			return nil, false, nil
		}
		batch, err := t.l.ReadBatch(t.next)
		if err != nil {
			return nil, false, err
		}
		entries, err := DecodeBatch(batch)
		if err != nil {
			// Leave t.next in place: the batch is not consumed, so a
			// transient read anomaly is retried on the next call
			// instead of silently skipping a batch.
			return nil, false, err
		}
		t.next++
		t.entries = entries
		t.idx = 0
	}
}

// Lag counts the entries between the tailer's position and the ledger's
// current end: decoded-but-unreturned entries plus the contents of unread
// batches. It is a control-plane helper for staleness gauges — cost is
// proportional to the backlog. maxBatches bounds the walk (0 = unbounded);
// when the bound truncates it, the count is a lower bound. Not safe for
// use concurrent with Next; callers serialize externally.
func (t *Tailer) Lag(maxBatches int) (int, error) {
	lag := len(t.entries) - t.idx
	if r, ok := t.l.(Refresher); ok {
		if err := r.Refresh(); err != nil {
			return lag, err
		}
	}
	n, err := t.l.NumBatches()
	if err != nil {
		return lag, err
	}
	for i := t.next; i < n; i++ {
		if maxBatches > 0 && i-t.next >= maxBatches {
			break
		}
		batch, err := t.l.ReadBatch(i)
		if err != nil {
			return lag, err
		}
		entries, err := DecodeBatch(batch)
		if err != nil {
			return lag, err
		}
		lag += len(entries)
	}
	return lag, nil
}
