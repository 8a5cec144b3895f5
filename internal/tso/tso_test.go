package tso

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/wal"
)

func TestMonotonicSingleGoroutine(t *testing.T) {
	o := New(16, nil)
	var prev uint64
	for i := 0; i < 1000; i++ {
		ts, err := o.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ts <= prev {
			t.Fatalf("timestamp %d not greater than previous %d", ts, prev)
		}
		prev = ts
	}
}

func TestFirstTimestampIsOne(t *testing.T) {
	o := New(0, nil)
	ts, err := o.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 1 {
		t.Fatalf("first timestamp = %d, want 1 (0 is reserved for 'none')", ts)
	}
}

func TestUniqueUnderConcurrency(t *testing.T) {
	o := New(64, nil)
	const goroutines, per = 16, 500
	results := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]uint64, 0, per)
			for i := 0; i < per; i++ {
				ts, err := o.Next()
				if err != nil {
					t.Errorf("next: %v", err)
					return
				}
				out = append(out, ts)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*per)
	for g, out := range results {
		var prev uint64
		for _, ts := range out {
			if seen[ts] {
				t.Fatalf("duplicate timestamp %d", ts)
			}
			seen[ts] = true
			if ts <= prev {
				t.Fatalf("goroutine %d saw non-monotonic %d after %d", g, ts, prev)
			}
			prev = ts
		}
	}
	if len(seen) != goroutines*per {
		t.Fatalf("issued %d distinct timestamps, want %d", len(seen), goroutines*per)
	}
}

func TestLast(t *testing.T) {
	o := New(8, nil)
	if o.Last() != 0 {
		t.Fatalf("Last before any Next = %d, want 0", o.Last())
	}
	ts := o.MustNext()
	if o.Last() != ts {
		t.Fatalf("Last = %d, want %d", o.Last(), ts)
	}
}

func TestReservationsPersisted(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	o := New(10, w)
	for i := 0; i < 25; i++ {
		o.MustNext()
	}
	w.Flush()
	// At least three reservation records (bounds 11, 21, 31) must exist.
	var bounds []uint64
	err = wal.Replay(ledger, func(e []byte) error {
		if b, ok := DecodeRecord(e); ok {
			bounds = append(bounds, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 3 {
		t.Fatalf("expected >=3 reservation records for 25 allocations with batch 10, got %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing: %v", bounds)
		}
	}
}

func TestRecoverNeverReissues(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	o := New(10, w)
	var maxIssued uint64
	for i := 0; i < 37; i++ {
		maxIssued = o.MustNext()
	}
	w.Flush() // crash point: reservations durable, oracle state lost

	w2, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Recover(10, ledger, w2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := o2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first <= maxIssued {
		t.Fatalf("recovered oracle reissued %d (max issued before crash %d)", first, maxIssued)
	}
}

func TestRecoverEmptyLedger(t *testing.T) {
	o, err := Recover(10, wal.NewMemLedger(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts := o.MustNext(); ts != 1 {
		t.Fatalf("fresh recovery first ts = %d, want 1", ts)
	}
}

func TestRecoverSkipsForeignRecords(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte{0xFF, 1, 2, 3}); err != nil { // foreign record
		t.Fatal(err)
	}
	if err := w.Append(EncodeRecord(500)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	o, err := Recover(10, ledger, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts := o.MustNext(); ts != 500 {
		t.Fatalf("recovered first ts = %d, want 500", ts)
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	prop := func(bound uint64) bool {
		got, ok := DecodeRecord(EncodeRecord(bound))
		return ok && got == bound
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := DecodeRecord([]byte{1, 2}); ok {
		t.Fatal("short record must not decode")
	}
	if _, ok := DecodeRecord(make([]byte, 9)); ok {
		t.Fatal("wrong magic must not decode")
	}
}

func TestWALFailurePropagates(t *testing.T) {
	ledger := wal.NewMemLedger()
	calls := 0
	ledger.FailAppend = func() error {
		calls++
		if calls > 1 {
			return errFail
		}
		return nil
	}
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	o := New(4, w)
	// Exhaust enough blocks that a reservation write fails; eventually
	// Next must surface the error instead of hanging or reusing.
	sawErr := false
	for i := 0; i < 100; i++ {
		if _, err := o.Next(); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("WAL failure never surfaced through Next")
	}
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "injected bookie failure" }

func TestNextBlockContiguous(t *testing.T) {
	o := New(16, nil)
	first, err := o.Next()
	if err != nil {
		t.Fatal(err)
	}
	var gotLo, gotHi uint64
	lo, err := o.NextBlock(64, func(l, h uint64) { gotLo, gotHi = l, h })
	if err != nil {
		t.Fatal(err)
	}
	if lo != first+1 {
		t.Fatalf("block lo = %d, want %d", lo, first+1)
	}
	if gotLo != lo || gotHi != lo+63 {
		t.Fatalf("publish(%d, %d), want (%d, %d)", gotLo, gotHi, lo, lo+63)
	}
	next, err := o.Next()
	if err != nil {
		t.Fatal(err)
	}
	if next != lo+64 {
		t.Fatalf("timestamp after 64-block = %d, want %d", next, lo+64)
	}
}

func TestNextBlockLargerThanReservation(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	o := New(8, w) // blocks of 8; request far more than one reservation
	lo, err := o.NextBlock(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 1 {
		t.Fatalf("lo = %d, want 1", lo)
	}
	ts, err := o.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 1001 {
		t.Fatalf("next after block = %d, want 1001", ts)
	}
}

func TestNextBlockRejectsNonPositive(t *testing.T) {
	o := New(0, nil)
	if _, err := o.NextBlock(0, nil); err == nil {
		t.Fatal("NextBlock(0) succeeded, want error")
	}
	if _, err := o.NextBlock(-3, nil); err == nil {
		t.Fatal("NextBlock(-3) succeeded, want error")
	}
}

func TestNextBlockConcurrentDisjoint(t *testing.T) {
	o := New(32, nil)
	const goroutines, per, n = 8, 200, 5
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lo, err := o.NextBlock(n, nil)
				if err != nil {
					t.Errorf("NextBlock: %v", err)
					return
				}
				mu.Lock()
				for ts := lo; ts < lo+n; ts++ {
					if seen[ts] {
						t.Errorf("timestamp %d issued twice", ts)
					}
					seen[ts] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*per*n {
		t.Fatalf("issued %d distinct timestamps, want %d", len(seen), goroutines*per*n)
	}
}
