package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func newTestWriter(t *testing.T, cfg Config, n int) (*Writer, []*MemLedger) {
	t.Helper()
	ledgers := make([]*MemLedger, n)
	ls := make([]Ledger, n)
	for i := range ledgers {
		ledgers[i] = NewMemLedger()
		ls[i] = ledgers[i]
	}
	w, err := NewWriter(cfg, ls...)
	if err != nil {
		t.Fatal(err)
	}
	return w, ledgers
}

func TestAppendAndReplay(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{}, 3)
	var want [][]byte
	for i := 0; i < 20; i++ {
		e := []byte(fmt.Sprintf("entry-%02d", i))
		want = append(want, e)
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	for li, l := range ledgers {
		var got [][]byte
		err := Replay(l, func(e []byte) error {
			got = append(got, append([]byte(nil), e...))
			return nil
		})
		if err != nil {
			t.Fatalf("ledger %d: %v", li, err)
		}
		if len(got) != len(want) {
			t.Fatalf("ledger %d: %d entries, want %d", li, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("ledger %d entry %d = %q, want %q", li, i, got[i], want[i])
			}
		}
	}
}

func TestQuorumToleratesMinorityFailure(t *testing.T) {
	ledgers := []*MemLedger{NewMemLedger(), NewMemLedger(), NewMemLedger()}
	ledgers[2].FailAppend = func() error { return errors.New("bookie down") }
	w, err := NewWriter(Config{Quorum: 2}, ledgers[0], ledgers[1], ledgers[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("survives")); err != nil {
		t.Fatalf("append should survive one failed ledger: %v", err)
	}
	w.Close()
}

func TestQuorumFailure(t *testing.T) {
	ledgers := []*MemLedger{NewMemLedger(), NewMemLedger(), NewMemLedger()}
	boom := func() error { return errors.New("bookie down") }
	ledgers[1].FailAppend = boom
	ledgers[2].FailAppend = boom
	w, err := NewWriter(Config{Quorum: 2}, ledgers[0], ledgers[1], ledgers[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("doomed")); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("err = %v, want ErrQuorumFailed", err)
	}
	w.Close()
}

func TestAppendAfterClose(t *testing.T) {
	w, _ := newTestWriter(t, Config{}, 1)
	w.Close()
	if err := w.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCloseFlushesPending(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{}, 1)
	done, err := w.AppendAsync([]byte("pending"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := <-done; err != nil {
		t.Fatalf("pending entry failed: %v", err)
	}
	n, _ := ledgers[0].NumBatches()
	if n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
}

func TestDecodeBatchDetectsCorruption(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{}, 1)
	if err := w.Append([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := ledgers[0].Corrupt(0); err != nil {
		t.Fatal(err)
	}
	err := Replay(ledgers[0], func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeBatchTruncation(t *testing.T) {
	batch := appendEntryFrame(nil, []byte("hello"))
	for cut := 1; cut < len(batch); cut++ {
		if _, err := DecodeBatch(batch[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		var batch []byte
		for _, p := range payloads {
			batch = appendEntryFrame(batch, p)
		}
		got, err := DecodeBatch(batch)
		if err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{}, 3)
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w.Close()
	count := 0
	err := Replay(ledgers[0], func([]byte) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != writers*per {
		t.Fatalf("replayed %d entries, want %d", count, writers*per)
	}
}

func TestFlushEmptyPending(t *testing.T) {
	w, _ := newTestWriter(t, Config{}, 1)
	w.Flush() // must not panic or write an empty batch
	w.Close()
}

func TestWriterRejectsNoLedgers(t *testing.T) {
	if _, err := NewWriter(Config{}); err == nil {
		t.Fatal("NewWriter with no ledgers must fail")
	}
}

func TestMemLedgerReadBatchRange(t *testing.T) {
	l := NewMemLedger()
	if _, err := l.ReadBatch(0); err == nil {
		t.Fatal("ReadBatch on empty ledger must fail")
	}
	if _, err := l.AppendBatch([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadBatch(-1); err == nil {
		t.Fatal("negative index must fail")
	}
}

func TestFileLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.AppendBatch([]byte(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Reopen and verify the index is rebuilt.
	l2, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n, _ := l2.NumBatches()
	if n != 5 {
		t.Fatalf("reopened ledger has %d batches, want 5", n)
	}
	b, err := l2.ReadBatch(3)
	if err != nil || string(b) != "batch-3" {
		t.Fatalf("ReadBatch(3) = %q, %v", b, err)
	}
}

func TestFileLedgerTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([]byte("complete")); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: header promising more bytes than exist.
	if _, err := l.f.WriteAt([]byte{0, 0, 0, 0, 0, 0, 0, 99, 'x'}, l.end); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n, _ := l2.NumBatches()
	if n != 1 {
		t.Fatalf("torn tail not discarded: %d batches", n)
	}
}

func TestDiscardLedger(t *testing.T) {
	var d DiscardLedger
	if _, err := d.AppendBatch([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.NumBatches(); n != 0 {
		t.Fatal("discard ledger retained a batch")
	}
	if _, err := d.ReadBatch(0); err == nil {
		t.Fatal("ReadBatch must fail on discard ledger")
	}
}

func TestAppendAllGroupDurable(t *testing.T) {
	w, ledgers := newTestWriter(t, Config{}, 3)
	defer w.Close()
	var want [][]byte
	for i := 0; i < 5; i++ {
		want = append(want, []byte(fmt.Sprintf("group-entry-%d", i)))
	}
	if err := w.AppendAll(want...); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := Replay(ledgers[0], func(e []byte) error {
		got = append(got, append([]byte(nil), e...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendAllEmptyAndClosed(t *testing.T) {
	w, _ := newTestWriter(t, Config{}, 1)
	if err := w.AppendAll(); err != nil {
		t.Fatalf("empty AppendAll: %v", err)
	}
	w.Close()
	if err := w.AppendAll([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendAll after close = %v, want ErrClosed", err)
	}
}
