package oracle

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
)

// heldDecide is a decide function the test holds in flight: every call
// announces its batch on calls and returns (echoing the batch) only when
// the test sends on release. Both channels are unbuffered, so a decide the
// test does not expect hangs the test instead of slipping through.
type heldDecide struct {
	calls   chan []int
	release chan struct{}
}

func newHeldDecide() *heldDecide {
	return &heldDecide{calls: make(chan []int), release: make(chan struct{})}
}

func (h *heldDecide) decide(reqs []int) ([]int, error) {
	batch := append([]int(nil), reqs...)
	h.calls <- batch
	<-h.release
	return batch, nil
}

type batcherOutcome struct {
	res int
	err error
}

// submit calls Submit on its own goroutine and returns the channel its
// answer arrives on, once the loop has taken the request in (or Submit has
// already answered): requests submitted one after another park in order.
func submit(b *Batcher[int, int], req int, deadline time.Time) <-chan batcherOutcome {
	out := make(chan batcherOutcome, 1)
	n := b.Accepted()
	go func() {
		res, err := b.Submit(req, deadline)
		out <- batcherOutcome{res, err}
	}()
	for b.Accepted() == n && len(out) == 0 {
		runtime.Gosched()
	}
	return out
}

// waitAccepted spins until the loop has taken in n requests: from then on
// they are parked (or cut), not still on their way through the channel.
func waitAccepted(b *Batcher[int, int], n int64) {
	for b.Accepted() < n {
		runtime.Gosched()
	}
}

// TestBatcherSelfClocked: an arrival on an idle batcher is decided at once,
// alone; everything submitted while that decide is in flight is parked and
// rides exactly one following decide, in order, cut by the first decide's
// return and nothing else.
func TestBatcherSelfClocked(t *testing.T) {
	h := newHeldDecide()
	b := NewBatcher(h.decide, 64)
	defer b.Stop()

	first := submit(b, 100, time.Time{})
	if got := <-h.calls; !slices.Equal(got, []int{100}) {
		t.Fatalf("first decide saw %v, want [100]", got)
	}
	var want []int
	var outs []<-chan batcherOutcome
	for i := 0; i < 20; i++ {
		want = append(want, i)
		outs = append(outs, submit(b, i, time.Time{}))
	}
	waitAccepted(b, 21)
	select {
	case got := <-h.calls:
		t.Fatalf("batch %v cut while a decide was in flight and the batch was not full", got)
	case o := <-outs[0]:
		t.Fatalf("parked request decided early: %+v", o)
	default:
	}
	h.release <- struct{}{}
	if o := <-first; o.err != nil || o.res != 100 {
		t.Fatalf("first = %+v", o)
	}
	if got := <-h.calls; !slices.Equal(got, want) {
		t.Fatalf("second decide saw %v, want %v", got, want)
	}
	h.release <- struct{}{}
	for i, out := range outs {
		if o := <-out; o.err != nil || o.res != i {
			t.Fatalf("request %d = %+v", i, o)
		}
	}
}

// TestBatcherFullBatchCutWhileInFlight: a full batch does not wait for the
// decide slot — saturation still runs decides concurrently.
func TestBatcherFullBatchCutWhileInFlight(t *testing.T) {
	h := newHeldDecide()
	b := NewBatcher(h.decide, 4)
	defer b.Stop()

	first := submit(b, 100, time.Time{})
	<-h.calls
	var outs []<-chan batcherOutcome
	for i := 0; i < 5; i++ {
		outs = append(outs, submit(b, i, time.Time{}))
	}
	if got := <-h.calls; !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("full batch = %v, want [0 1 2 3] while the first decide is still held", got)
	}
	waitAccepted(b, 6)
	h.release <- struct{}{}
	h.release <- struct{}{}
	// The fifth request was parked behind two decides; the last one to
	// return cuts it.
	if got := <-h.calls; !slices.Equal(got, []int{4}) {
		t.Fatalf("remainder = %v, want [4]", got)
	}
	h.release <- struct{}{}
	<-first
	for i, out := range outs {
		if o := <-out; o.err != nil || o.res != i {
			t.Fatalf("request %d = %+v", i, o)
		}
	}
}

// TestBatcherDeadlineExpiresWhileParked: a request whose deadline passes
// while it is parked behind a decide in flight fails with ErrExpired at the
// cut and never reaches decide; its neighbour does.
func TestBatcherDeadlineExpiresWhileParked(t *testing.T) {
	h := newHeldDecide()
	b := NewBatcher(h.decide, 64)
	defer b.Stop()

	first := submit(b, 100, time.Time{})
	<-h.calls
	deadline := time.Now().Add(10 * time.Millisecond)
	doomed := submit(b, 1, deadline)
	healthy := submit(b, 2, time.Time{})
	waitAccepted(b, 3)
	select {
	case o := <-doomed:
		t.Fatalf("request with a live deadline failed at submission: %+v", o)
	default:
	}
	<-time.After(time.Until(deadline) + time.Millisecond)
	h.release <- struct{}{}
	<-first
	if o := <-doomed; !errors.Is(o.err, ErrExpired) {
		t.Fatalf("expired request = %+v, want ErrExpired", o)
	}
	if got := <-h.calls; !slices.Equal(got, []int{2}) {
		t.Fatalf("decide saw %v, want [2]: expired work must not occupy a slot", got)
	}
	h.release <- struct{}{}
	if o := <-healthy; o.err != nil || o.res != 2 {
		t.Fatalf("healthy = %+v", o)
	}
}

// TestBatcherStopDuringBlockedDecide: Stop fails what is parked, once each,
// without waiting for the decide in flight, then waits for that decide,
// whose own request still gets its answer.
func TestBatcherStopDuringBlockedDecide(t *testing.T) {
	h := newHeldDecide()
	b := NewBatcher(h.decide, 64)

	first := submit(b, 100, time.Time{})
	<-h.calls
	var parked []<-chan batcherOutcome
	for i := 0; i < 3; i++ {
		parked = append(parked, submit(b, i, time.Time{}))
	}
	stopped := make(chan struct{})
	go func() { b.Stop(); close(stopped) }()
	for _, out := range parked {
		if o := <-out; !errors.Is(o.err, ErrBatcherStopped) {
			t.Fatalf("parked request = %+v, want ErrBatcherStopped", o)
		}
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned with a decide still in flight")
	default:
	}
	h.release <- struct{}{}
	<-stopped
	if o := <-first; o.err != nil || o.res != 100 {
		t.Fatalf("in-flight request = %+v", o)
	}
	if _, err := b.Submit(7, time.Time{}); !errors.Is(err, ErrBatcherStopped) {
		t.Fatalf("submit after Stop = %v, want ErrBatcherStopped", err)
	}
}

// TestBatcherWaiterReuse: one goroutine submits four requests in turn, so
// the pooled waiter of one call is, as a rule, the next call's: one that
// expires while parked (beside a neighbour that is decided), one whose
// batch's decide fails, one that succeeds and one after Stop. Each must come
// back with its own outcome; a waiter put back without its outcome cleared,
// or signalled twice, hands a later call the earlier one's.
func TestBatcherWaiterReuse(t *testing.T) {
	errDecide := errors.New("decide failed")
	release := make(chan struct{})
	decide := func(reqs []int) ([]int, error) {
		switch reqs[0] {
		case 0: // held in flight, so the next request parks behind it
			<-release
		case 2:
			return nil, errDecide
		}
		out := make([]int, len(reqs))
		for i, r := range reqs {
			out[i] = -r
		}
		return out, nil
	}
	b := NewBatcher(decide, 64)
	held := submit(b, 0, time.Time{})
	neighbour := submit(b, 5, time.Time{})

	deadline := time.Now().Add(20 * time.Millisecond)
	go func() {
		waitAccepted(b, 3)
		<-time.After(time.Until(deadline) + time.Millisecond)
		close(release)
	}()
	if res, err := b.Submit(1, deadline); !errors.Is(err, ErrExpired) || res != 0 {
		t.Fatalf("parked past its deadline = (%d, %v), want ErrExpired", res, err)
	}
	if n := b.Accepted(); n != 3 {
		t.Fatalf("accepted %d requests: the expiring one never parked", n)
	}
	if o := <-held; o.err != nil || o.res != 0 {
		t.Fatalf("held request = %+v", o)
	}
	if o := <-neighbour; o.err != nil || o.res != -5 {
		t.Fatalf("neighbour of the expired request = %+v, want -5", o)
	}
	if res, err := b.Submit(2, time.Time{}); !errors.Is(err, errDecide) || res != 0 {
		t.Fatalf("failed decide = (%d, %v), want %v", res, err, errDecide)
	}
	if res, err := b.Submit(3, time.Time{}); err != nil || res != -3 {
		t.Fatalf("decided = (%d, %v), want (-3, nil)", res, err)
	}
	b.Stop()
	if res, err := b.Submit(4, time.Time{}); !errors.Is(err, ErrBatcherStopped) || res != 0 {
		t.Fatalf("after Stop = (%d, %v), want ErrBatcherStopped", res, err)
	}
}
