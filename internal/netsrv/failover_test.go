package netsrv

import (
	"testing"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// TestFailoverStatsCarriesAvailabilityCounters: the widened opStats payload round-
// trips the checkpoint/recovery fields.
func TestFailoverStatsCarriesAvailabilityCounters(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	so, err := oracle.New(oracle.Config{Engine: oracle.SI, WAL: w, TSO: tso.New(0, w)})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i := 0; i < 10; i++ {
		ts, _ := so.Begin()
		if _, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}}); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	if err := so.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	w.Flush()
	recovered, err := oracle.Recover(oracle.Config{Engine: oracle.SI, TSO: tso.New(0, nil)}, ledger)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	srv := NewServer(recovered)
	srv.Logf = nil
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	got, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	want := recovered.Stats()
	if got.LastCheckpointTS != want.LastCheckpointTS || got.ReplayedRecords != want.ReplayedRecords ||
		got.RecoveryNanos != want.RecoveryNanos || got.Checkpoints != want.Checkpoints {
		t.Fatalf("availability counters did not round-trip:\n got %+v\nwant %+v", got, want)
	}
	if want.LastCheckpointTS == 0 {
		t.Fatalf("recovery surfaced no checkpoint bound")
	}
}
