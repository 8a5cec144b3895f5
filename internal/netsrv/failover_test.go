package netsrv

import (
	"testing"
	"time"

	"repro/internal/ha"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// startFailoverPair builds a primary server over a replicated MemLedger WAL
// and a standby server tailing it, returning both plus the promotion
// plumbing.
func startFailoverPair(t *testing.T) (primarySrv, standbySrv *Server, primaryAddr, standbyAddr string, ledgers []wal.Ledger) {
	t.Helper()
	ledgers = []wal.Ledger{wal.NewMemLedger(), wal.NewMemLedger(), wal.NewMemLedger()}
	w, err := wal.NewWriter(wal.Config{}, ledgers...)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	so, err := oracle.New(oracle.Config{Engine: oracle.SI, WAL: w, TSO: tso.New(1000, w)})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	primarySrv = NewServer(so)
	primarySrv.Logf = nil
	primaryAddr, err = primarySrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen primary: %v", err)
	}

	sb, err := ha.NewStandby(oracle.Config{Engine: oracle.SI}, ledgers[0])
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	sb.Start(time.Millisecond)
	standbySrv = NewStandbyServer(func() (*oracle.StatusOracle, error) {
		nw, err := wal.NewWriter(wal.Config{}, wal.NewMemLedger())
		if err != nil {
			return nil, err
		}
		return sb.Promote(ha.PromoteConfig{Fence: ledgers, WAL: nw})
	})
	standbySrv.Logf = nil
	standbyAddr, err = standbySrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen standby: %v", err)
	}
	return primarySrv, standbySrv, primaryAddr, standbyAddr, ledgers
}

// TestFailoverStandbyServerRejects: data ops on a standby fail with a
// role error, health reports the role, and opPromote flips it.
func TestFailoverStandbyServerRejects(t *testing.T) {
	primarySrv, standbySrv, primaryAddr, standbyAddr, _ := startFailoverPair(t)
	defer primarySrv.Close()
	defer standbySrv.Close()

	pc, err := Dial(primaryAddr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer pc.Close()
	if role, err := pc.Health(); err != nil || role != "primary" {
		t.Fatalf("primary health = %q, %v", role, err)
	}
	// Commit some traffic so the standby has state to inherit.
	ts, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res, err := pc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{7}})
	if err != nil || !res.Committed {
		t.Fatalf("commit: %v %+v", err, res)
	}

	sc, err := Dial(standbyAddr)
	if err != nil {
		t.Fatalf("dial standby: %v", err)
	}
	defer sc.Close()
	if role, _ := sc.Health(); role != "standby" {
		t.Fatalf("standby health = %q", role)
	}
	if _, err := sc.Begin(); err == nil {
		t.Fatalf("standby served Begin before promotion")
	}
	if _, err := sc.ResolveStatus(ts); err == nil {
		t.Fatalf("standby resolved a status before promotion")
	}

	if err := sc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := sc.Promote(); err != nil {
		t.Fatalf("second promote not idempotent: %v", err)
	}
	if role, _ := sc.Health(); role != "primary" {
		t.Fatalf("promoted health = %q", role)
	}
	st, err := sc.ResolveStatus(ts)
	if err != nil || st.Status != oracle.StatusCommitted || st.CommitTS != res.CommitTS {
		t.Fatalf("inherited commit not visible on promoted server: %+v, %v", st, err)
	}
	// The old primary is fenced: its next commit fails.
	ts2, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin on fenced primary: %v", err)
	}
	if _, err := pc.Commit(oracle.CommitRequest{StartTS: ts2, WriteSet: []oracle.RowID{8}}); err == nil {
		t.Fatalf("fenced primary acked a commit")
	}
}

// TestClientFailover: a DialFailover client loses the primary, reconnects
// to the promoted standby, and resolves an acked commit there — without
// ever resubmitting it.
func TestClientFailover(t *testing.T) {
	primarySrv, standbySrv, primaryAddr, standbyAddr, _ := startFailoverPair(t)
	defer standbySrv.Close()

	c, err := DialFailover(primaryAddr, standbyAddr)
	if err != nil {
		t.Fatalf("dial failover: %v", err)
	}
	defer c.Close()

	ts, err := c.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{1}})
	if err != nil || !res.Committed {
		t.Fatalf("commit: %v %+v", err, res)
	}

	// Primary dies; promote the standby.
	primarySrv.Close()
	sc, err := Dial(standbyAddr)
	if err != nil {
		t.Fatalf("dial standby: %v", err)
	}
	defer sc.Close()
	if err := sc.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// The client's next calls reconnect to the standby address. The
	// first call after the loss may race the in-flight disconnect, so
	// allow a few attempts.
	var role string
	for i := 0; i < 20; i++ {
		role, err = c.Health()
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil || role != "primary" {
		t.Fatalf("failover client health = %q, %v", role, err)
	}
	st, err := c.ResolveStatus(ts)
	if err != nil || st.Status != oracle.StatusCommitted || st.CommitTS != res.CommitTS {
		t.Fatalf("acked commit not resolvable after failover: %+v, %v", st, err)
	}
	// And the failed-over client can commit new transactions.
	ts2, err := c.Begin()
	if err != nil {
		t.Fatalf("begin after failover: %v", err)
	}
	if ts2 <= res.CommitTS {
		t.Fatalf("post-failover timestamp %d not above old epoch %d", ts2, res.CommitTS)
	}
	res2, err := c.Commit(oracle.CommitRequest{StartTS: ts2, WriteSet: []oracle.RowID{2}})
	if err != nil || !res2.Committed {
		t.Fatalf("commit after failover: %v %+v", err, res2)
	}
}

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
