// Package tso implements the timestamp oracle: a centralized, strictly
// monotonic source of transaction timestamps (paper §2, Appendix A).
//
// Start and commit timestamps are drawn from the same counter, so the
// commit order of transactions equals their commit-timestamp order. To make
// timestamps durable without paying a log write per allocation, the oracle
// reserves blocks of timestamps ahead of time: only the reservation bound
// is logged ("the timestamp oracle could reserve thousands of timestamps
// per each write into the write-ahead log", §6.2). After a crash, recovery
// resumes from the last logged bound, guaranteeing no timestamp is ever
// issued twice at the cost of skipping at most one block.
package tso

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/wal"
)

// Timestamp is a logical timestamp. Zero is reserved as "none": the first
// issued timestamp is 1.
type Timestamp = uint64

// DefaultBatch is the default reservation block size.
const DefaultBatch = 10_000

// recordMagic tags WAL entries written by the timestamp oracle so they can
// share a ledger with other record types.
const recordMagic = 0x54 // 'T'

// Oracle issues strictly increasing timestamps. All methods are safe for
// concurrent use.
type Oracle struct {
	batch uint64
	wal   *wal.Writer // nil means non-durable (tests, pure benchmarks)

	mu        sync.Mutex
	cond      *sync.Cond
	next      uint64 // next timestamp to hand out
	reserved  uint64 // exclusive durable upper bound of issuable timestamps
	extending bool
	frozen    bool // Freeze in effect: no new reservation extensions
	failed    error
}

// New creates an oracle persisting reservations to w. A nil w disables
// durability. batch <= 0 selects DefaultBatch.
func New(batch int, w *wal.Writer) *Oracle {
	if batch <= 0 {
		batch = DefaultBatch
	}
	o := &Oracle{batch: uint64(batch), wal: w, next: 1, reserved: 1}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// Resume creates an oracle whose first issued timestamp is bound — the
// reservation bound recovered from a checkpoint or a tailed log. A
// promoting standby uses it so the new primary's timestamps continue the
// old epoch monotonically: no timestamp at or above bound was ever durable
// to issue, so none can have been handed out. bound <= 1 is a fresh oracle.
func Resume(bound uint64, batch int, w *wal.Writer) *Oracle {
	o := New(batch, w)
	if bound > o.next {
		o.next = bound
		o.reserved = bound
	}
	return o
}

// Freeze blocks new reservation extensions, waits out any in-flight one,
// and returns the durable reservation bound. While frozen, timestamps keep
// flowing from the current block; only a block exhaustion would wait. The
// status oracle freezes the TSO while capturing a checkpoint so that the
// bound it records is exact: every reservation record already in the WAL
// is <= the returned bound, and every later one appends after the
// checkpoint record and is replayed from the suffix.
func (o *Oracle) Freeze() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.frozen = true
	for o.extending {
		o.cond.Wait()
	}
	return o.reserved
}

// Unfreeze re-enables reservation extensions.
func (o *Oracle) Unfreeze() {
	o.mu.Lock()
	o.frozen = false
	o.cond.Broadcast()
	o.mu.Unlock()
}

// Recover rebuilds an oracle from a ledger previously written through New's
// writer, then continues logging to w. The recovered oracle never reissues
// a timestamp that could have been handed out before the crash.
func Recover(batch int, ledger wal.Ledger, w *wal.Writer) (*Oracle, error) {
	o := New(batch, w)
	var maxBound uint64
	err := wal.Replay(ledger, func(entry []byte) error {
		bound, ok := DecodeRecord(entry)
		if !ok {
			return nil // other record types share the ledger
		}
		if bound > maxBound {
			maxBound = bound
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tso: recovery replay: %w", err)
	}
	if maxBound > 0 {
		o.next = maxBound
		o.reserved = maxBound
	}
	return o, nil
}

// EncodeRecord renders a reservation bound as a WAL entry.
func EncodeRecord(bound uint64) []byte {
	var b [9]byte
	b[0] = recordMagic
	binary.BigEndian.PutUint64(b[1:], bound)
	return b[:]
}

// DecodeRecord parses a WAL entry; ok is false for foreign record types.
func DecodeRecord(entry []byte) (bound uint64, ok bool) {
	if len(entry) != 9 || entry[0] != recordMagic {
		return 0, false
	}
	return binary.BigEndian.Uint64(entry[1:]), true
}

// Next returns the next timestamp. It blocks only when a reservation block
// is exhausted before its asynchronous extension completed, which with the
// default batch size is rare even at high request rates.
func (o *Oracle) Next() (Timestamp, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.failed != nil {
			return 0, o.failed
		}
		if o.next < o.reserved {
			ts := o.next
			o.next++
			// Prefetch the next block before this one runs out.
			if o.reserved-o.next <= o.batch/4 && !o.extending {
				o.startExtendLocked()
			}
			return ts, nil
		}
		if o.frozen {
			// A checkpoint capture is in progress; extensions resume
			// at Unfreeze.
			o.cond.Wait()
			continue
		}
		if !o.extending {
			o.startExtendLocked()
			// With no WAL the extension completes synchronously;
			// re-check instead of waiting for a broadcast that
			// will never come.
			continue
		}
		o.cond.Wait()
	}
}

// NextWith allocates a timestamp and runs fn(ts) *before any later
// timestamp can be issued* — fn executes under the oracle's mutex. The
// status oracle uses this to publish a commit-table entry atomically with
// the commit-timestamp assignment: a transaction whose start timestamp
// exceeds some commit timestamp Tc is then guaranteed to observe that
// commit, which is the snapshot-visibility invariant of §2. This mirrors
// the paper's design of integrating the timestamp oracle into the status
// oracle's critical section (Appendix A). fn must be short and must not
// call back into the oracle.
func (o *Oracle) NextWith(fn func(ts Timestamp)) (Timestamp, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.failed != nil {
			return 0, o.failed
		}
		if o.next < o.reserved {
			ts := o.next
			o.next++
			if o.reserved-o.next <= o.batch/4 && !o.extending {
				o.startExtendLocked()
			}
			fn(ts)
			return ts, nil
		}
		if o.frozen {
			o.cond.Wait()
			continue
		}
		if !o.extending {
			o.startExtendLocked()
			continue
		}
		o.cond.Wait()
	}
}

// NextBlock allocates n consecutive timestamps [lo, lo+n-1] in one
// critical-section pass and, like NextWith, runs publish(lo, hi) under the
// oracle's mutex *before any later timestamp can be issued*. The status
// oracle's batched commit path uses it to assign an entire batch's commit
// timestamps — and publish all of the batch's commit-table entries — at the
// cost of a single atomic advance instead of one per transaction. publish
// may be nil; when set it must be short and must not call back into the
// oracle.
func (o *Oracle) NextBlock(n int, publish func(lo, hi Timestamp)) (Timestamp, error) {
	if n <= 0 {
		return 0, fmt.Errorf("tso: NextBlock needs n > 0, got %d", n)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.failed != nil {
			return 0, o.failed
		}
		if o.reserved-o.next >= uint64(n) {
			lo := o.next
			o.next += uint64(n)
			if o.reserved-o.next <= o.batch/4 && !o.extending {
				o.startExtendLocked()
			}
			if publish != nil {
				publish(lo, lo+uint64(n)-1)
			}
			return lo, nil
		}
		if o.frozen {
			o.cond.Wait()
			continue
		}
		// Blocks larger than the remaining reservation extend repeatedly
		// until the whole block fits inside the durable bound; no
		// timestamp is handed out until then, so crash recovery can never
		// reissue part of a block.
		if !o.extending {
			o.startExtendLocked()
			continue
		}
		o.cond.Wait()
	}
}

// MustNext is Next for contexts where a durability failure is fatal
// (tests with in-memory ledgers).
func (o *Oracle) MustNext() Timestamp {
	ts, err := o.Next()
	if err != nil {
		panic(err)
	}
	return ts
}

// startExtendLocked begins an asynchronous reservation extension.
// Caller holds o.mu.
func (o *Oracle) startExtendLocked() {
	if o.frozen || o.extending {
		return
	}
	o.extending = true
	newBound := o.reserved + o.batch
	if o.wal == nil {
		o.reserved = newBound
		o.extending = false
		return
	}
	go func() {
		err := o.wal.Append(EncodeRecord(newBound))
		o.mu.Lock()
		if err != nil {
			o.failed = fmt.Errorf("tso: persist reservation: %w", err)
		} else {
			o.reserved = newBound
		}
		o.extending = false
		o.cond.Broadcast()
		o.mu.Unlock()
	}()
}

// Last returns the most recently issued timestamp (0 if none yet).
func (o *Oracle) Last() Timestamp {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.next - 1
}

// ErrExhausted is returned by bounded test oracles; the production oracle
// never exhausts a uint64 in practice.
var ErrExhausted = errors.New("tso: timestamp space exhausted")
