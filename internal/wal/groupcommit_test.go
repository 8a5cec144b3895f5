package wal

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// gate makes a MemLedger's appends block: every AppendBatch announces
// itself on entered and proceeds, or fails, with the value the test sends
// on release. Both channels are unbuffered, so an append the test does not
// expect hangs the test instead of slipping through.
type gate struct {
	entered chan struct{}
	release chan error
}

func gateAppends(l *MemLedger) gate {
	g := gate{entered: make(chan struct{}), release: make(chan error)}
	l.FailAppend = func() error {
		g.entered <- struct{}{}
		return <-g.release
	}
	return g
}

// waitParked spins until n waiters are parked on the accumulating batch.
func waitParked(w *Writer, n int) {
	for {
		w.mu.Lock()
		parked := len(w.waiters)
		w.mu.Unlock()
		if parked == n {
			return
		}
		runtime.Gosched()
	}
}

func mustAsync(t *testing.T, w *Writer, entry string) <-chan error {
	t.Helper()
	done, err := w.AppendAsync([]byte(entry))
	if err != nil {
		t.Fatalf("AppendAsync(%q): %v", entry, err)
	}
	return done
}

func batchEntries(t *testing.T, l Ledger, i int) []string {
	t.Helper()
	batch, err := l.ReadBatch(i)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(entries))
	for j, e := range entries {
		out[j] = string(e)
	}
	return out
}

// TestGroupCommitSelfClocked: the first append on an idle writer reaches
// the ledger by itself — nothing but the append triggers it — and
// everything issued while it is in flight, an AppendAll group included,
// lands in exactly one following batch, in issue order, however many bytes
// that is. Nothing is acknowledged before its own batch is answered.
func TestGroupCommitSelfClocked(t *testing.T) {
	l := NewMemLedger()
	g := gateAppends(l)
	w, err := NewWriter(Config{}, l)
	if err != nil {
		t.Fatal(err)
	}
	first := mustAsync(t, w, "first")
	<-g.entered

	const n = 64 // 64 x 40 framed bytes: several batches under a 1 KB size trigger
	var want []string
	var dones []<-chan error
	for i := 0; i < n; i++ {
		e := fmt.Sprintf("entry-%02d-%s", i, "padding-to-32-bytes-long")
		want = append(want, e)
		dones = append(dones, mustAsync(t, w, e))
	}
	group := make(chan error, 1)
	go func() { group <- w.AppendAll([]byte("group-a"), []byte("group-b")) }()
	waitParked(w, n+1)
	want = append(want, "group-a", "group-b")

	select {
	case err := <-first:
		t.Fatalf("first append acknowledged (%v) before the ledger answered", err)
	case err := <-dones[0]:
		t.Fatalf("buffered append acknowledged (%v) before it was flushed", err)
	default:
	}
	g.release <- nil
	if err := <-first; err != nil {
		t.Fatalf("first append: %v", err)
	}
	<-g.entered // the flusher took again on its own
	g.release <- nil
	for i, d := range dones {
		if err := <-d; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := <-group; err != nil {
		t.Fatalf("AppendAll: %v", err)
	}
	w.Close()

	if nb, _ := l.NumBatches(); nb != 2 {
		t.Fatalf("%d ledger batches, want 2 (one per ledger round trip)", nb)
	}
	if got := batchEntries(t, l, 0); len(got) != 1 || got[0] != "first" {
		t.Fatalf("batch 0 = %q, want [first]", got)
	}
	got := batchEntries(t, l, 1)
	if len(got) != len(want) {
		t.Fatalf("batch 1 has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch 1 entry %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestGroupCommitFlushIsBarrier: an append is acknowledged at quorum while
// a slower replica is still writing, but Flush — recovery's barrier —
// returns only after the last replica has answered, and the next batch is
// not handed to any ledger before that either.
func TestGroupCommitFlushIsBarrier(t *testing.T) {
	fast, slow := NewMemLedger(), NewMemLedger()
	gf, gs := gateAppends(fast), gateAppends(slow)
	w, err := NewWriter(Config{Quorum: 1}, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	done := mustAsync(t, w, "quick")
	<-gf.entered
	<-gs.entered
	gf.release <- nil
	if err := <-done; err != nil {
		t.Fatalf("quorum-1 append waited for the slow replica: %v", err)
	}

	next := mustAsync(t, w, "next")
	flushed := make(chan struct{})
	go func() { w.Flush(); close(flushed) }()
	waitParked(w, 2)
	select {
	case <-flushed:
		t.Fatal("Flush returned with an append still in flight on a replica")
	case <-gf.entered:
		t.Fatal("next batch reached a ledger before the straggler answered")
	default:
	}
	gs.release <- nil

	<-gf.entered
	<-gs.entered
	gf.release <- nil
	if err := <-next; err != nil {
		t.Fatalf("next append: %v", err)
	}
	select {
	case <-flushed:
		t.Fatal("Flush returned at quorum, not after the last replica")
	default:
	}
	gs.release <- nil
	<-flushed
	if n, _ := slow.NumBatches(); n != 2 {
		t.Fatalf("slow replica holds %d batches after Flush, want 2", n)
	}
	w.Close()
}

// TestGroupCommitSealLatchesBufferedAppends: a seal observed by the batch in
// flight fails everything buffered behind it with ErrFenced without
// offering it to the ledgers (the gate would hang the test), and releases
// barrier waiters.
func TestGroupCommitSealLatchesBufferedAppends(t *testing.T) {
	l := NewMemLedger()
	g := gateAppends(l)
	w, err := NewWriter(Config{}, l)
	if err != nil {
		t.Fatal(err)
	}
	inflight := mustAsync(t, w, "in-flight")
	<-g.entered
	behind := []<-chan error{mustAsync(t, w, "behind-1"), mustAsync(t, w, "behind-2")}
	flushed := make(chan struct{})
	go func() { w.Flush(); close(flushed) }()
	waitParked(w, 3)

	g.release <- ErrSealed
	if err := <-inflight; !errors.Is(err, ErrFenced) {
		t.Fatalf("in-flight append = %v, want ErrFenced", err)
	}
	for i, d := range behind {
		if err := <-d; !errors.Is(err, ErrFenced) {
			t.Fatalf("buffered append %d = %v, want ErrFenced", i, err)
		}
	}
	<-flushed
	if !w.Fenced() {
		t.Fatal("writer not latched")
	}
	if err := w.Append([]byte("late")); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after fence = %v, want ErrFenced", err)
	}
	if n, _ := l.NumBatches(); n != 0 {
		t.Fatalf("fenced ledger holds %d batches", n)
	}
	w.Close()
}

// BenchmarkWriterAppend is the steady-state group-commit path under
// parallel appenders against a zero-latency ledger: framing, parking,
// flusher hand-off, replication and acknowledgement. scripts/allocsmoke.sh
// holds it to its budget.
func BenchmarkWriterAppend(b *testing.B) {
	w, err := NewWriter(Config{Quorum: 2}, DiscardLedger{}, DiscardLedger{}, DiscardLedger{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	entry := make([]byte, 48)
	b.ReportAllocs()
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := w.Append(entry); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
