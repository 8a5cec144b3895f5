package netsrv

import (
	"testing"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// TestFailoverStatsCarriesAvailabilityCounters: the metrics plane carries the
// checkpoint/recovery counters, the checkpoint's TSO bound included.
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
	recovered, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.SI}, ledger, nil, 0)
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
	want := recovered.Stats()
	for _, f := range []struct {
		family string
		want   int64
	}{
		{"oracle_last_checkpoint_ts", want.LastCheckpointTS},
		{"oracle_replayed_records", want.ReplayedRecords},
		{"oracle_recovery_nanos", want.RecoveryNanos},
		{"oracle_checkpoints_total", want.Checkpoints},
	} {
		if got := wireSum(t, c, f.family); got != float64(f.want) {
			t.Fatalf("%s = %v over the wire, want %d", f.family, got, f.want)
		}
	}
	if want.LastCheckpointTS == 0 {
		t.Fatalf("recovery surfaced no checkpoint bound")
	}
}
