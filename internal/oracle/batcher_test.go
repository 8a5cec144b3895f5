package oracle

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
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

// submit parks req and returns the channel its callback reports on.
func submit(b *Batcher[int, int], req int, deadline time.Time) <-chan batcherOutcome {
	out := make(chan batcherOutcome, 1)
	b.SubmitDeadline(req, deadline, func(res int, err error) {
		out <- batcherOutcome{res, err}
	})
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
	deadline := time.Now().Add(2 * time.Millisecond)
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
	var calls atomic.Int32
	parked := make(chan error, 3)
	for i := 0; i < 3; i++ {
		b.Submit(i, func(_ int, err error) {
			calls.Add(1)
			parked <- err
		})
	}
	stopped := make(chan struct{})
	go func() { b.Stop(); close(stopped) }()
	for i := 0; i < 3; i++ {
		if err := <-parked; !errors.Is(err, ErrBatcherStopped) {
			t.Fatalf("parked request = %v, want ErrBatcherStopped", err)
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
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d callbacks for 3 parked requests", n)
	}
	if _, err := b.SubmitWait(7); !errors.Is(err, ErrBatcherStopped) {
		t.Fatalf("submit after Stop = %v, want ErrBatcherStopped", err)
	}
}
