package partition

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// decideParker parks the first decide carrying startTS until release is
// closed, signalling arrived when it parks; every other call passes
// straight through.
type decideParker struct {
	Backend
	startTS          uint64
	once             sync.Once
	arrived, release chan struct{}
}

func (b *decideParker) DecideBatch(ds []oracle.Decision) error {
	for _, d := range ds {
		if d.StartTS == b.startTS {
			b.once.Do(func() {
				close(b.arrived)
				<-b.release
			})
		}
	}
	return b.Backend.DecideBatch(ds)
}

// TestPartitionVerdictVisibleInDecideWindow: on the path remote partitions
// run (SharedTSO off, each partition its own clock), a snapshot drawn above
// W's commit timestamp while W's decide is still on its way resolves W as
// committed at that timestamp. At one partition the decide is parked on
// the partition that also publishes; at two it is parked on the partition
// that holds W's rows but not its verdict.
func TestPartitionVerdictVisibleInDecideWindow(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("parts=%d", n), func(t *testing.T) {
			backends := make([]Backend, n)
			for i := range backends {
				so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
				if err != nil {
					t.Fatal(err)
				}
				backends[i] = Local{so}
			}
			parked := &decideParker{Backend: backends[n-1], arrived: make(chan struct{}), release: make(chan struct{})}
			backends[n-1] = parked
			co, err := NewCoordinator(Config{Engine: oracle.WSI, Router: NewEvenRangeRouter(n, 100), Backends: backends})
			if err != nil {
				t.Fatal(err)
			}
			sW, err := co.Begin()
			if err != nil {
				t.Fatal(err)
			}
			parked.startTS = sW
			doneW := make(chan oracle.CommitResult, 1)
			go func() {
				res, err := co.Commit(oracle.CommitRequest{StartTS: sW, WriteSet: []oracle.RowID{99}})
				if err != nil {
					t.Errorf("commit W: %v", err)
				}
				doneW <- res
			}()
			select {
			case <-parked.arrived:
			case res := <-doneW:
				t.Fatalf("W's decide never reached partition %d: %+v", n-1, res)
			}
			snap, err := co.Begin()
			if err != nil {
				t.Fatal(err)
			}
			st := co.QueryBatch([]uint64{sW})[0]
			close(parked.release)
			resW := <-doneW
			if !resW.Committed {
				t.Fatalf("W did not commit: %+v", resW)
			}
			if snap <= resW.CommitTS {
				t.Fatalf("snapshot %d drawn during the decide is not above W's commit %d", snap, resW.CommitTS)
			}
			if st.Status != oracle.StatusCommitted || st.CommitTS != resW.CommitTS {
				t.Fatalf("snapshot %d resolves W as %+v during its decide, want committed at %d", snap, st, resW.CommitTS)
			}
		})
	}
}

// TestPartitionVerdictDurableOnPartitionZero: a round's commit is durable
// in partition 0's log even when partition 0 holds none of its rows, so a
// recovery of partition 0 from its own ledger alone answers it committed
// at the acknowledged timestamp. (Three partitions, because with the
// shared clock a transaction on one partition takes the one-shot path; at
// two, every cross transaction covers partition 0.)
func TestPartitionVerdictDurableOnPartitionZero(t *testing.T) {
	const parts = 3
	ledgers := make([]*wal.MemLedger, parts)
	writers := make([]*wal.Writer, parts)
	for i := range ledgers {
		ledgers[i] = wal.NewMemLedger()
		w, err := wal.NewWriter(wal.Config{Quorum: 1}, ledgers[i])
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = w
	}
	lc, err := NewLocal(LocalConfig{
		Partitions: parts,
		Engine:     oracle.WSI,
		Router:     NewEvenRangeRouter(parts, 300),
		WALFor:     func(i int) *wal.Writer { return writers[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := lc.Coordinator.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Rows 150 and 250 route to partitions 1 and 2.
	res, err := lc.Coordinator.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{150, 250}})
	if err != nil || !res.Committed {
		t.Fatalf("cross commit: res=%+v err=%v", res, err)
	}
	writers[0].Flush()
	rec, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.WSI}, ledgers[0], nil, 0)
	if err != nil {
		t.Fatalf("recover partition 0: %v", err)
	}
	if st := rec.Query(ts); st.Status != oracle.StatusCommitted || st.CommitTS != res.CommitTS {
		t.Fatalf("recovered partition 0 answers %+v, want committed at %d", st, res.CommitTS)
	}
}

// failingLedger refuses every append once fail is set.
type failingLedger struct {
	*wal.MemLedger
	fail atomic.Bool
}

var errLedgerDown = errors.New("ledger down")

func (l *failingLedger) AppendBatch(b []byte) (int, error) {
	if l.fail.Load() {
		return 0, errLedgerDown
	}
	return l.MemLedger.AppendBatch(b)
}

// publishFault wraps partition 0's PublishCommits: unpublished fails before
// publishing, lostReply publishes and then reports the reply lost.
type publishFault struct {
	Backend
	unpublished, lostReply bool
}

func (b publishFault) PublishCommits(startTSs []uint64) (uint64, error) {
	if b.unpublished {
		return 0, errors.New("timestamp oracle failed")
	}
	lo, err := b.Backend.PublishCommits(startTSs)
	if b.lostReply && err == nil {
		return 0, fmt.Errorf("%w: connection reset", ErrInDoubt)
	}
	return lo, err
}

// TestPartitionPublishFailureRule drives the round's failure rule with a
// faulty partition 0 (SharedTSO off). A commit partition 0 published is
// never decided abort anywhere: one whose record failed to persist stands
// and is decided commit on its partition, and one whose reply was lost
// stays prepared. A round partition 0 did not publish aborts everywhere.
func TestPartitionPublishFailureRule(t *testing.T) {
	for _, c := range []struct {
		name                   string
		ledgerFails            bool
		unpublished, lostReply bool
		want                   oracle.Status // W's status on partition 1
		prepared               int           // prepares left on partition 1
	}{
		{"record-fails", true, false, false, oracle.StatusCommitted, 0},
		{"reply-lost", false, false, true, oracle.StatusPending, 1},
		{"nothing-published", false, true, false, oracle.StatusAborted, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			ledger := &failingLedger{MemLedger: wal.NewMemLedger()}
			w, err := wal.NewWriter(wal.Config{Quorum: 1}, ledger)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			p0, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil), WAL: w})
			if err != nil {
				t.Fatal(err)
			}
			p1, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
			if err != nil {
				t.Fatal(err)
			}
			backends := []Backend{publishFault{Local{p0}, c.unpublished, c.lostReply}, Local{p1}}
			co, err := NewCoordinator(Config{Engine: oracle.WSI, Router: NewEvenRangeRouter(2, 100), Backends: backends})
			if err != nil {
				t.Fatal(err)
			}
			sW, err := co.Begin()
			if err != nil {
				t.Fatal(err)
			}
			ledger.fail.Store(c.ledgerFails)
			// Row 60 lives on partition 1; partition 0 only publishes.
			if _, err := co.Commit(oracle.CommitRequest{StartTS: sW, WriteSet: []oracle.RowID{60}}); err == nil {
				t.Fatal("a faulty publication returned no error")
			}
			published := p0.Query(sW)
			st := p1.Query(sW)
			if st.Status != c.want {
				t.Fatalf("partition 1 answers %+v, want %v", st, c.want)
			}
			if published.Status == oracle.StatusCommitted && st.Status == oracle.StatusAborted {
				t.Fatalf("partition 0 published W at %d, partition 1 decided it abort", published.CommitTS)
			}
			if st.Status == oracle.StatusCommitted && st.CommitTS != published.CommitTS {
				t.Fatalf("partition 1 commits W at %d, partition 0 published %+v", st.CommitTS, published)
			}
			if n := p1.PreparedCount(); n != c.prepared {
				t.Fatalf("partition 1 holds %d prepares, want %d", n, c.prepared)
			}
			if got := co.Query(sW); (got.Status == oracle.StatusCommitted) != (published.Status == oracle.StatusCommitted) {
				t.Fatalf("coordinator answers %+v, partition 0 %+v", got, published)
			}
		})
	}
}
