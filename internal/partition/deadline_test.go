package partition

import (
	"errors"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// slowPrepare delays a backend's prepare phase so a commit's envelope
// deadline can expire between admission and the decide fan-out.
type slowPrepare struct {
	Backend
	delay time.Duration
}

func (s slowPrepare) PrepareBatch(reqs []oracle.PrepareRequest) ([]bool, error) {
	time.Sleep(s.delay)
	return s.Backend.PrepareBatch(reqs)
}

func newSlowCluster(t *testing.T, delay time.Duration) *Coordinator {
	t.Helper()
	clock := tso.New(0, nil)
	backends := make([]Backend, 2)
	for i := range backends {
		so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = slowPrepare{Local{so}, delay}
	}
	co, err := NewCoordinator(Config{
		Engine:    oracle.WSI,
		Router:    NewHashRouter(2),
		Backends:  backends,
		SharedTSO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// crossReq builds one transaction spanning both partitions.
func crossReq(t *testing.T, co *Coordinator) oracle.CommitRequest {
	t.Helper()
	ts, err := co.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{0, 1}}
}

// TestCommitBatchDeadlineExpiredAtEntry: a dead-on-arrival batch does no
// conflict-check work at all.
func TestCommitBatchDeadlineExpiredAtEntry(t *testing.T) {
	co := newSlowCluster(t, 0)
	defer co.Close()
	req := crossReq(t, co)
	if _, err := co.CommitBatchDeadline([]oracle.CommitRequest{req}, time.Now().Add(-time.Millisecond)); !errors.Is(err, oracle.ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if st := co.Query(req.StartTS); st.Status != oracle.StatusPending {
		t.Fatalf("dead-on-arrival txn decided without work: %v", st.Status)
	}
	if s := co.Stats(); s.ExpiredDecides != 0 {
		t.Fatalf("entry expiry counted as a decide-wait release: %+v", s)
	}
}

// TestCommitBatchDeadlineReleasesDecideWait: the deadline expires during
// the (slow) prepare phase; the caller is released with ErrExpired instead
// of waiting out the decide fan-out, while the verdict — already published
// at partition 0 — lands in the background and stays queryable.
func TestCommitBatchDeadlineReleasesDecideWait(t *testing.T) {
	co := newSlowCluster(t, 40*time.Millisecond)
	defer co.Close()
	req := crossReq(t, co)
	_, err := co.CommitBatchDeadline([]oracle.CommitRequest{req}, time.Now().Add(5*time.Millisecond))
	if !errors.Is(err, oracle.ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if s := co.Stats(); s.ExpiredDecides != 1 {
		t.Fatalf("ExpiredDecides = %d, want 1", s.ExpiredDecides)
	}
	if err := co.DrainDecides(); err != nil {
		t.Fatalf("backgrounded decide failed: %v", err)
	}
	// The client was released, but the commit is real: the verdict is
	// final and visible to status queries.
	st := co.Query(req.StartTS)
	if st.Status != oracle.StatusCommitted || st.CommitTS <= req.StartTS {
		t.Fatalf("released commit not queryable: %+v", st)
	}
	// The same coordinator still commits normally with no deadline.
	req2 := crossReq(t, co)
	res, err := co.CommitBatchDeadline([]oracle.CommitRequest{req2}, time.Time{})
	if err != nil || !res[0].Committed {
		t.Fatalf("no-deadline commit: %v %+v", err, res)
	}
}
