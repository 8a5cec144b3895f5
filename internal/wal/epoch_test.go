package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestSealEpochElectionMonotone: a ledger grants each epoch at most once,
// rejects proposals at or below its current seal epoch, and accepts
// strictly higher ones (so a stalled election can be retried at a higher
// epoch).
func TestSealEpochElectionMonotone(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) Ledger
	}{
		{"mem", func(t *testing.T) Ledger { return NewMemLedger() }},
		{"file", func(t *testing.T) Ledger {
			l, err := OpenFileLedger(filepath.Join(t.TempDir(), "l.wal"), false)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.mk(t)
			if err := SealEpoch(l, 2); err != nil {
				t.Fatalf("first seal at epoch 2: %v", err)
			}
			if err := SealEpoch(l, 2); !errors.Is(err, ErrEpochSuperseded) {
				t.Fatalf("duplicate epoch 2 seal: got %v, want ErrEpochSuperseded", err)
			}
			if err := SealEpoch(l, 1); !errors.Is(err, ErrEpochSuperseded) {
				t.Fatalf("lower epoch 1 seal: got %v, want ErrEpochSuperseded", err)
			}
			if err := SealEpoch(l, 3); err != nil {
				t.Fatalf("higher epoch 3 seal (upgrade): %v", err)
			}
			if _, err := l.AppendBatch([]byte("x")); !errors.Is(err, ErrSealed) {
				t.Fatalf("append to epoch-sealed ledger: got %v, want ErrSealed", err)
			}
			if got := l.(EpochSealer).SealedEpoch(); got != 3 {
				t.Fatalf("SealedEpoch = %d, want 3", got)
			}
		})
	}
}

// TestSealEpochElectionDuel: two candidates racing to seal a replica set
// at the same epoch — at most one can newly seal a quorum, because each
// ledger grants the epoch exactly once.
func TestSealEpochElectionDuel(t *testing.T) {
	const replicas, quorum = 3, 2
	ledgers := make([]Ledger, replicas)
	for i := range ledgers {
		ledgers[i] = NewMemLedger()
	}
	wins := make([]int, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, l := range ledgers {
				if SealEpoch(l, 7) == nil {
					wins[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	if wins[0]+wins[1] != replicas {
		t.Fatalf("seal grants = %d+%d, want exactly %d total", wins[0], wins[1], replicas)
	}
	winners := 0
	for c := 0; c < 2; c++ {
		if wins[c] >= quorum {
			winners++
		}
	}
	if winners > 1 {
		t.Fatalf("both candidates reached seal quorum: %v", wins)
	}
}

// TestSealEpochLeasePersistence: a file ledger's seal epoch survives
// reopen, arbitrates against a second process-style handle, and a bare
// seal marker left by an older binary reads back as epoch 0 yet still
// accepts an epoch upgrade.
func TestSealEpochLeasePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epoch.wal")
	l, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(appendEntryFrame(nil, []byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := l.SealEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.SealedEpoch(); got != 5 {
		t.Fatalf("reopened SealedEpoch = %d, want 5", got)
	}
	if n, _ := re.NumBatches(); n != 1 {
		t.Fatalf("reopened NumBatches = %d, want 1", n)
	}
	if err := re.SealEpoch(5); !errors.Is(err, ErrEpochSuperseded) {
		t.Fatalf("same-epoch seal after reopen: got %v, want ErrEpochSuperseded", err)
	}

	// A second live handle (another process in the cross-process fence
	// model) must observe the upgrade the first handle performs.
	other, err := OpenFileLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.SealEpoch(6); err != nil {
		t.Fatalf("upgrade to epoch 6: %v", err)
	}
	if err := other.SealEpoch(6); !errors.Is(err, ErrEpochSuperseded) {
		t.Fatalf("stale handle same-epoch seal: got %v, want ErrEpochSuperseded", err)
	}
	re.Close()
	other.Close()

	// A bare marker with no epoch word, as an older binary sealed a file:
	// it still fences, reads back as epoch 0, and accepts an upgrade.
	lp := filepath.Join(dir, "legacy.wal")
	var marker [8]byte
	binary.BigEndian.PutUint64(marker[:], sealMarker)
	if err := os.WriteFile(lp, marker[:], 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := OpenFileLedger(lp, false)
	if err != nil {
		t.Fatal(err)
	}
	if !legacy.Sealed() || legacy.SealedEpoch() != 0 {
		t.Fatalf("legacy marker: sealed=%v epoch=%d, want sealed at 0", legacy.Sealed(), legacy.SealedEpoch())
	}
	if _, err := legacy.AppendBatch([]byte("x")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append to legacy-sealed file: got %v, want ErrSealed", err)
	}
	if err := legacy.SealEpoch(1); err != nil {
		t.Fatalf("epoch upgrade of legacy seal: %v", err)
	}
	legacy.Close()
	lre, err := OpenFileLedgerReader(lp)
	if err != nil {
		t.Fatal(err)
	}
	if got := lre.SealedEpoch(); got != 1 {
		t.Fatalf("upgraded legacy SealedEpoch after reopen = %d, want 1", got)
	}
	lre.Close()
}

// TestTailerLagElection: Lag counts unread entries without consuming them.
func TestTailerLagElection(t *testing.T) {
	l := NewMemLedger()
	var batch []byte
	for i := 0; i < 3; i++ {
		batch = appendEntryFrame(batch[:0], []byte{byte(i)})
		if _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	tl := NewTailer(l)
	if lag, err := tl.Lag(0); err != nil || lag != 3 {
		t.Fatalf("initial Lag = %d, %v; want 3", lag, err)
	}
	if _, ok, err := tl.Next(); !ok || err != nil {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if lag, err := tl.Lag(0); err != nil || lag != 2 {
		t.Fatalf("Lag after one Next = %d, %v; want 2", lag, err)
	}
	if lag, err := tl.Lag(1); err != nil || lag != 1 {
		t.Fatalf("bounded Lag(1) = %d, %v; want 1 (lower bound)", lag, err)
	}
}
