package oracle

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBatcherStopped reports a request submitted to a stopped Batcher.
var ErrBatcherStopped = errors.New("oracle: batcher stopped")

// ErrExpired reports a request whose deadline passed before its batch was
// decided: the batcher drops it when the batch is cut, so expired work never
// occupies a slot in the decide call (and, upstream, never reaches the WAL
// group commit). The ingress layer renders it as a deadline-exceeded reply.
var ErrExpired = errors.New("oracle: request deadline expired before decision")

// batcherItem is one request parked in a Batcher. deadline is the absolute
// expiry in nanoseconds (time.Time.UnixNano; 0 = none): carrying it as an
// int64 keeps the comparison at batch-cut time to one load. done hands the
// decision back to the blocked Submit, exactly once.
type batcherItem[Q, R any] struct {
	req      Q
	deadline int64
	done     func(R, error)
}

// Batcher is the accumulation loop behind the netsrv server-side commit
// coalescer: requests submitted by any number of goroutines are funneled
// through a channel into one loop that hands batches to the decide function
// (typically a CommitBatch). The loop is self-clocked: it cuts a batch when
// it is full or when no decide is in flight, so an idle batcher decides an
// arrival at once, a busy one parks arrivals until the decide in flight
// returns, and the stage behind it — not a timer — sets the batch size.
// Batches are decided on their own goroutines, so at saturation full batches
// still run concurrently.
type Batcher[Q, R any] struct {
	decide   func([]Q) ([]R, error)
	maxBatch int
	items    chan batcherItem[Q, R]
	decided  chan struct{} // one signal per finished decide goroutine
	quit     chan struct{}
	wg       sync.WaitGroup
	accepted atomic.Int64

	mu     sync.RWMutex
	closed bool
}

// NewBatcher starts a batcher cutting batches of up to maxBatch.
func NewBatcher[Q, R any](decide func([]Q) ([]R, error), maxBatch int) *Batcher[Q, R] {
	b := &Batcher[Q, R]{
		decide:   decide,
		maxBatch: maxBatch,
		items:    make(chan batcherItem[Q, R], 4*maxBatch),
		decided:  make(chan struct{}),
		quit:     make(chan struct{}),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// Submit parks one request carrying an absolute deadline (zero = none) and
// blocks until its batch's decision is in — the synchronous shape every
// per-frame server handler needs. A request whose deadline has already
// passed fails at once with ErrExpired; one that expires while parked is
// dropped when its batch is cut, without occupying a decide slot.
func (b *Batcher[Q, R]) Submit(req Q, deadline time.Time) (R, error) {
	var zero R
	var dl int64
	if !deadline.IsZero() {
		dl = deadline.UnixNano()
		if time.Now().UnixNano() >= dl {
			return zero, ErrExpired
		}
	}
	type outcome struct {
		res R
		err error
	}
	done := make(chan outcome, 1)
	item := batcherItem[Q, R]{req: req, deadline: dl, done: func(res R, err error) {
		done <- outcome{res: res, err: err}
	}}
	// The closed flag is checked under a read lock so no send can race
	// past Stop: Stop flips the flag under the write lock before closing
	// quit, and the loop drains the channel on quit, so every request
	// that enters the channel gets its answer.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return zero, ErrBatcherStopped
	}
	b.items <- item
	b.mu.RUnlock()
	o := <-done
	return o.res, o.err
}

// Accepted counts the requests the loop has taken in so far. One counted here
// is in a cut batch or parked for the next: a test holding a decide in flight
// waits on it instead of sleeping until its submissions have parked.
func (b *Batcher[Q, R]) Accepted() int64 { return b.accepted.Load() }

func (b *Batcher[Q, R]) loop() {
	defer b.wg.Done()
	var batch []batcherItem[Q, R]
	inflight := 0 // decide goroutines that have not signalled decided
	cut := func() {
		items := batch
		batch = nil
		inflight++
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.run(items)
			select {
			case b.decided <- struct{}{}:
			case <-b.quit:
			}
		}()
	}
	for {
		select {
		case item := <-b.items:
			held := len(batch)
			batch = append(batch, item)
			// Drain whatever else is already queued, up to the batch cap.
		drain:
			for len(batch) < b.maxBatch {
				select {
				case item := <-b.items:
					batch = append(batch, item)
				default:
					break drain
				}
			}
			b.accepted.Add(int64(len(batch) - held))
			if len(batch) >= b.maxBatch || inflight == 0 {
				cut()
			}
		case <-b.decided:
			if inflight--; inflight == 0 && len(batch) > 0 {
				cut()
			}
		case <-b.quit:
			// Fail parked items, then drain the channel: Submit stops
			// sending before quit closes, so this leaves nothing
			// behind.
			var zero R
			for _, it := range batch {
				it.done(zero, ErrBatcherStopped)
			}
			for {
				select {
				case it := <-b.items:
					it.done(zero, ErrBatcherStopped)
				default:
					return
				}
			}
		}
	}
}

// run decides one batch and fans the results out. Items whose deadline
// passed while parked are failed with ErrExpired here, before the decide
// call — expired work is shed at the cut, never occupying a batch slot.
func (b *Batcher[Q, R]) run(items []batcherItem[Q, R]) {
	var zero R
	reqs := make([]Q, 0, len(items))
	var now int64
	for i := range items {
		if dl := items[i].deadline; dl != 0 {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			if now >= dl {
				items[i].done(zero, ErrExpired)
				items[i].done = nil
				continue
			}
		}
		reqs = append(reqs, items[i].req)
	}
	if len(reqs) == 0 {
		return
	}
	results, err := b.decide(reqs)
	next := 0
	for i := range items {
		if items[i].done == nil {
			continue
		}
		if err != nil {
			items[i].done(zero, err)
		} else {
			items[i].done(results[next], nil)
		}
		next++
	}
}

// Stop shuts the loop down. In-flight submissions complete (their requests
// are drained and failed with ErrBatcherStopped if undecided); submissions
// after Stop fail immediately.
func (b *Batcher[Q, R]) Stop() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	b.wg.Wait()
}
