package partition

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

func TestRouters(t *testing.T) {
	h := NewHashRouter(4)
	if h.Partitions() != 4 {
		t.Fatalf("hash partitions = %d", h.Partitions())
	}
	for r := oracle.RowID(0); r < 100; r++ {
		if p := h.Partition(r); p != int(uint64(r)%4) {
			t.Fatalf("hash route %d -> %d", r, p)
		}
	}
	rr := NewEvenRangeRouter(4, 400)
	if rr.Partitions() != 4 {
		t.Fatalf("range partitions = %d", rr.Partitions())
	}
	for _, tc := range []struct {
		row  oracle.RowID
		want int
	}{{0, 0}, {99, 0}, {100, 1}, {250, 2}, {399, 3}, {5000, 3}} {
		if p := rr.Partition(tc.row); p != tc.want {
			t.Fatalf("range route %d -> %d, want %d", tc.row, p, tc.want)
		}
	}
	// More partitions than rows still gives one slice per partition.
	for row, want := range []int{0, 1, 2, 3, 3} {
		if p := NewEvenRangeRouter(4, 2).Partition(oracle.RowID(row)); p != want {
			t.Fatalf("narrow range route %d -> %d, want %d", row, p, want)
		}
	}
	// Every range spec builds a RangeMap.
	for _, spec := range []string{"range", "range:100,200,300"} {
		r, err := ParseRouter(spec, 4)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		if _, ok := r.(*RangeMap); !ok {
			t.Fatalf("ParseRouter(%q) = %T, want *RangeMap", spec, r)
		}
	}
	if _, err := ParseRouter("range:100,50", 3); err == nil {
		t.Fatalf("descending splits accepted")
	}
	if _, err := ParseRouter("bogus", 2); err == nil {
		t.Fatalf("bogus router spec accepted")
	}
}

// TestPartitionSingleEquivalence proves a 1-partition Coordinator is
// decision-identical to the plain status oracle: the same request stream
// (including intra-batch conflicts, read-only fast paths and Tmax aborts)
// produces bit-identical commit results.
func TestPartitionSingleEquivalence(t *testing.T) {
	for _, engine := range []oracle.Engine{oracle.WSI, oracle.SI} {
		lc, err := NewLocal(LocalConfig{Partitions: 1, Engine: engine, MaxRows: 32})
		if err != nil {
			t.Fatalf("local: %v", err)
		}
		plainTSO := tso.New(0, nil)
		plain, err := oracle.New(oracle.Config{Engine: engine, MaxRows: 32, TSO: plainTSO})
		if err != nil {
			t.Fatalf("plain: %v", err)
		}

		rng := rand.New(rand.NewSource(7))
		const rounds = 200
		for round := 0; round < rounds; round++ {
			batch := 1 + rng.Intn(6)
			reqs := make([]oracle.CommitRequest, batch)
			for i := range reqs {
				// Begin through both so the timestamp streams stay aligned.
				ts, err := lc.Coordinator.Begin()
				if err != nil {
					t.Fatalf("begin: %v", err)
				}
				ts2, err := plain.Begin()
				if err != nil {
					t.Fatalf("plain begin: %v", err)
				}
				if ts != ts2 {
					t.Fatalf("timestamp streams diverged: %d vs %d", ts, ts2)
				}
				reqs[i] = oracle.CommitRequest{StartTS: ts}
				if rng.Intn(5) > 0 { // ~80% write transactions
					for n := rng.Intn(4); n >= 0; n-- {
						reqs[i].WriteSet = append(reqs[i].WriteSet, oracle.RowID(rng.Intn(40)))
					}
					for n := rng.Intn(4); n >= 0; n-- {
						reqs[i].ReadSet = append(reqs[i].ReadSet, oracle.RowID(rng.Intn(40)))
					}
				}
			}
			got, err := lc.Coordinator.CommitBatch(reqs)
			if err != nil {
				t.Fatalf("coordinator commit: %v", err)
			}
			want, err := plain.CommitBatch(reqs)
			if err != nil {
				t.Fatalf("plain commit: %v", err)
			}
			for i := range reqs {
				if got[i] != want[i] {
					t.Fatalf("%v round %d req %d: coordinator %+v, plain %+v",
						engine, round, i, got[i], want[i])
				}
			}
			// Status answers must agree too.
			for i := range reqs {
				g := lc.Coordinator.Query(reqs[i].StartTS)
				w := plain.Query(reqs[i].StartTS)
				if g != w {
					t.Fatalf("%v status of %d: coordinator %+v, plain %+v",
						engine, reqs[i].StartTS, g, w)
				}
			}
		}
	}
}

// TestPartitionCrossCommit exercises the two-phase path: transactions
// spanning partitions commit with a coordinator-allocated timestamp, are
// queryable on every covering partition after the decide, and conflicting
// cross-partition transactions abort.
func TestPartitionCrossCommit(t *testing.T) {
	lc, err := NewLocal(LocalConfig{Partitions: 4, Engine: oracle.WSI})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	co := lc.Coordinator

	begin := func() uint64 {
		ts, err := co.Begin()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		return ts
	}

	// Rows 0..3 hash to partitions 0..3. t2old begins first, so t1's
	// commit lands inside its snapshot window.
	t1 := begin()
	t2old := begin()
	res, err := co.Commit(oracle.CommitRequest{StartTS: t1, WriteSet: []oracle.RowID{0, 1, 2, 3}})
	if err != nil {
		t.Fatalf("cross commit: %v", err)
	}
	if !res.Committed || res.CommitTS <= t1 {
		t.Fatalf("cross commit result %+v", res)
	}
	// Every covering partition answers committed with the same timestamp.
	for p := 0; p < 4; p++ {
		st := lc.Partitions[p].Query(t1)
		if st.Status != oracle.StatusCommitted || st.CommitTS != res.CommitTS {
			t.Fatalf("partition %d status %+v, want committed at %d", p, st, res.CommitTS)
		}
	}
	// No prepared state left behind.
	for p := 0; p < 4; p++ {
		if n := lc.Partitions[p].PreparedCount(); n != 0 {
			t.Fatalf("partition %d still holds %d prepares", p, n)
		}
	}

	// A WSI read-write conflict across partitions: t2old read rows 0 and
	// 1, and t1 committed them after t2old's snapshot.
	res2, err := co.Commit(oracle.CommitRequest{StartTS: t2old, WriteSet: []oracle.RowID{4, 5}, ReadSet: []oracle.RowID{0, 1}})
	if err != nil {
		t.Fatalf("conflicting commit: %v", err)
	}
	if res2.Committed {
		t.Fatalf("read-write conflict across partitions not detected")
	}
	if st := co.Query(t2old); st.Status != oracle.StatusAborted {
		t.Fatalf("aborted cross txn status %+v", st)
	}

	// A fresh snapshot sees t1 and commits fine.
	t3 := begin()
	res3, err := co.Commit(oracle.CommitRequest{StartTS: t3, WriteSet: []oracle.RowID{4, 5}, ReadSet: []oracle.RowID{0, 1}})
	if err != nil {
		t.Fatalf("fresh commit: %v", err)
	}
	if !res3.Committed {
		t.Fatalf("fresh snapshot aborted")
	}

	st := co.Stats()
	if st.CrossTxns != 3 || st.CrossCommits != 2 || st.CrossAborts != 1 {
		t.Fatalf("coordinator stats %+v", st)
	}
	// Partition 0 holds every round's commit, covering or not.
	if st := lc.Partitions[0].Query(t3); st.Status != oracle.StatusCommitted || st.CommitTS != res3.CommitTS {
		t.Fatalf("partition 0 answers %+v for a commit at %d", st, res3.CommitTS)
	}
}

// TestPartitionPreparedBlocksOneShot: while a cross-partition transaction
// is prepared but undecided, one-shot commits that overlap its rows abort
// pessimistically — in both directions (check rows vs prepared writes,
// write rows vs prepared reads).
func TestPartitionPreparedBlocksOneShot(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t1 := clock.MustNext()
	ct := clock.MustNext()
	votes, err := so.PrepareBatch([]oracle.PrepareRequest{{
		StartTS:  t1,
		WriteSet: []oracle.RowID{10}, ReadSet: []oracle.RowID{20},
	}})
	if err != nil || !votes[0] {
		t.Fatalf("prepare: votes=%v err=%v", votes, err)
	}
	if st := so.Query(t1); st.Status != oracle.StatusPending {
		t.Fatalf("prepared txn status %+v, want pending", st)
	}

	// Reader of the prepared write row aborts.
	t2 := clock.MustNext()
	res, err := so.Commit(oracle.CommitRequest{StartTS: t2, WriteSet: []oracle.RowID{30}, ReadSet: []oracle.RowID{10}})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if res.Committed {
		t.Fatalf("reader of prepared write row committed")
	}
	// Writer of the prepared read row aborts.
	t3 := clock.MustNext()
	res, err = so.Commit(oracle.CommitRequest{StartTS: t3, WriteSet: []oracle.RowID{20}, ReadSet: []oracle.RowID{31}})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if res.Committed {
		t.Fatalf("writer of prepared read row committed")
	}
	// Disjoint rows commit fine.
	t4 := clock.MustNext()
	res, err = so.Commit(oracle.CommitRequest{StartTS: t4, WriteSet: []oracle.RowID{40}, ReadSet: []oracle.RowID{41}})
	if err != nil || !res.Committed {
		t.Fatalf("disjoint commit res=%+v err=%v", res, err)
	}

	// After the decide the locks are gone and the commit is published.
	if err := so.DecideBatch([]oracle.Decision{{StartTS: t1, CommitTS: ct, Commit: true}}); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if st := so.Query(t1); st.Status != oracle.StatusCommitted || st.CommitTS != ct {
		t.Fatalf("decided txn status %+v", st)
	}
	if tc, ok := so.LastCommitOf(10); !ok || tc != ct {
		t.Fatalf("lastCommit[10] = %d,%v want %d", tc, ok, ct)
	}
	t5 := clock.MustNext()
	res, err = so.Commit(oracle.CommitRequest{StartTS: t5, WriteSet: []oracle.RowID{30}, ReadSet: []oracle.RowID{10}})
	if err != nil || !res.Committed {
		t.Fatalf("post-decide commit res=%+v err=%v", res, err)
	}
}

// TestPartitionInDoubtRecovery crashes a partition between its prepare and
// its decide, recovers it from its WAL, and settles the in-doubt prepares
// by asking partition 0: the round partition 0 published re-decides as
// commit at its published timestamp, and the prepare whose round never
// reached partition 0 (its coordinator is gone) aborts.
func TestPartitionInDoubtRecovery(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{Quorum: 1}, ledger)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	clock := tso.New(0, nil)
	p0, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
	if err != nil {
		t.Fatalf("partition 0: %v", err)
	}
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock, WAL: w})
	if err != nil {
		t.Fatalf("partition 1: %v", err)
	}

	// Two prepares: one whose round partition 0 published, one whose
	// round never got that far.
	t1, t2 := clock.MustNext(), clock.MustNext()
	votes, err := so.PrepareBatch([]oracle.PrepareRequest{
		{StartTS: t1, WriteSet: []oracle.RowID{1}, ReadSet: []oracle.RowID{2}},
		{StartTS: t2, WriteSet: []oracle.RowID{3}, ReadSet: []oracle.RowID{4}},
	})
	if err != nil || !votes[0] || !votes[1] {
		t.Fatalf("prepare: votes=%v err=%v", votes, err)
	}
	w.Flush()
	ct1, err := p0.PublishCommits([]uint64{t1})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Crash: recover a fresh oracle from the ledger.
	rw, err := wal.NewWriter(wal.Config{Quorum: 1}, ledger)
	if err != nil {
		t.Fatalf("recover writer: %v", err)
	}
	rec, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.WSI}, ledger, rw, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	inDoubt := rec.InDoubt()
	if len(inDoubt) != 2 {
		t.Fatalf("in-doubt prepares = %d, want 2", len(inDoubt))
	}
	starts := make([]uint64, len(inDoubt))
	for i, p := range inDoubt {
		starts[i] = p.StartTS
	}
	ds := make([]oracle.Decision, len(inDoubt))
	for i, st := range p0.QueryBatch(starts) {
		ds[i] = oracle.Decision{StartTS: starts[i], CommitTS: st.CommitTS, Commit: st.Status == oracle.StatusCommitted}
	}
	if err := rec.DecideBatch(ds); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if st := rec.Query(t1); st.Status != oracle.StatusCommitted || st.CommitTS != ct1 {
		t.Fatalf("published commit settled to %+v", st)
	}
	if st := rec.Query(t2); st.Status != oracle.StatusAborted {
		t.Fatalf("unpublished prepare settled to %+v", st)
	}
	if n := rec.PreparedCount(); n != 0 {
		t.Fatalf("%d prepares left after settlement", n)
	}
	// The settled commit's write row is folded into lastCommit.
	if tc, ok := rec.LastCommitOf(1); !ok || tc != ct1 {
		t.Fatalf("lastCommit[1] = %d,%v want %d", tc, ok, ct1)
	}

	// A second recovery (after the decides landed in the WAL) comes back
	// with nothing in doubt.
	rw.Flush()
	rec2, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.WSI}, ledger, nil, 0)
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if n := rec2.PreparedCount(); n != 0 {
		t.Fatalf("second recovery holds %d prepares", n)
	}
	if st := rec2.Query(t1); st.Status != oracle.StatusCommitted || st.CommitTS != ct1 {
		t.Fatalf("second recovery status %+v", st)
	}
}

// TestPartitionCheckpointCarriesPrepares: a checkpoint taken while a
// prepare is in flight must carry it, so bounded recovery (checkpoint +
// suffix) still knows the transaction is in doubt even though its
// recPrepare record lies before the checkpoint.
func TestPartitionCheckpointCarriesPrepares(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{Quorum: 1}, ledger)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	clock := tso.New(100, w)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock, WAL: w})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t1, _ := so.Begin()
	if _, err := so.PrepareBatch([]oracle.PrepareRequest{{StartTS: t1, WriteSet: []oracle.RowID{7}}}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := so.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// A few commits after the checkpoint, then crash.
	for i := 0; i < 3; i++ {
		ts, _ := so.Begin()
		if _, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(100 + i)}}); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	w.Flush()

	rec, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.WSI}, ledger, nil, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	inDoubt := rec.InDoubt()
	if len(inDoubt) != 1 || inDoubt[0].StartTS != t1 {
		t.Fatalf("in-doubt after bounded recovery = %+v, want txn %d", inDoubt, t1)
	}
	// The prepared lock survived recovery: an overlapping reader aborts.
	res, err := rec.Commit(oracle.CommitRequest{StartTS: t1 + 100, WriteSet: []oracle.RowID{8}, ReadSet: []oracle.RowID{7}})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if res.Committed {
		t.Fatalf("reader of recovered prepared row committed")
	}
}

// TestPartitionBeginBarrier: a snapshot issued after a cross-partition
// commit's timestamp was allocated must not be handed out until the commit
// is fully published — so a reader either sees the transaction on every
// partition or its snapshot predates the commit timestamp.
func TestPartitionBeginBarrier(t *testing.T) {
	lc, err := NewLocal(LocalConfig{Partitions: 2, Engine: oracle.WSI})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	co := lc.Coordinator
	done := make(chan oracle.CommitResult, 1)
	t1, _ := co.Begin()
	go func() {
		res, err := co.Commit(oracle.CommitRequest{StartTS: t1, WriteSet: []oracle.RowID{0, 1}})
		if err != nil {
			t.Errorf("commit: %v", err)
		}
		done <- res
	}()
	res := <-done
	// Any snapshot issued after the commit ack must see it as committed
	// with ct < snapshot on every partition.
	s, err := co.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if s <= res.CommitTS {
		t.Fatalf("snapshot %d not above commit %d", s, res.CommitTS)
	}
	for p := 0; p < 2; p++ {
		st := lc.Partitions[p].Query(t1)
		if st.Status != oracle.StatusCommitted {
			t.Fatalf("partition %d: post-ack snapshot observes %+v", p, st)
		}
	}
}

// TestLateWriterCommitsAfterReader: a transaction is checked against every
// commit below its commit timestamp, on the path remote partitions run
// (SharedTSO off). W = {write x} begins before R = {read x, write y}, but
// W's round reaches its partition only after R has committed. WSI checks
// W's reads, not its writes, so nothing there can reject W; what keeps the
// history serializable is that W's commit timestamp is drawn after its
// check, above R's. A W committed inside R's interval (S_R, C_R) would be
// the write R's read missed: a lost update.
func TestLateWriterCommitsAfterReader(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	pb := &parkingBackend{Backend: Local{so}, arrived: make(chan struct{}), release: make(chan struct{})}
	co, err := NewCoordinator(Config{Engine: oracle.WSI, Backends: []Backend{pb}})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	const x, y = oracle.RowID(1), oracle.RowID(2)
	sW, err := co.Begin()
	if err != nil {
		t.Fatalf("begin W: %v", err)
	}
	sR, err := co.Begin()
	if err != nil {
		t.Fatalf("begin R: %v", err)
	}
	pb.startTS = sW

	doneW := make(chan oracle.CommitResult, 1)
	go func() {
		res, err := co.Commit(oracle.CommitRequest{StartTS: sW, WriteSet: []oracle.RowID{x}})
		if err != nil {
			t.Errorf("commit W: %v", err)
		}
		doneW <- res
	}()
	select {
	case <-pb.arrived:
	case res := <-doneW:
		t.Fatalf("W's round never reached its partition: %+v", res)
	}
	resR, err := co.Commit(oracle.CommitRequest{StartTS: sR, WriteSet: []oracle.RowID{y}, ReadSet: []oracle.RowID{x}})
	close(pb.release)
	resW := <-doneW
	if err != nil {
		t.Fatalf("commit R: %v", err)
	}
	if resW.Committed && resR.Committed && sR < resW.CommitTS && resW.CommitTS < resR.CommitTS {
		t.Fatalf("W committed at %d inside R's interval (%d, %d): R's read of x missed W's write", resW.CommitTS, sR, resR.CommitTS)
	}
}

// parkingBackend parks the first prepare carrying startTS until release is
// closed, signalling arrived when it parks; every other call passes
// straight through.
type parkingBackend struct {
	Backend
	startTS          uint64
	once             sync.Once
	arrived, release chan struct{}
}

func (b *parkingBackend) PrepareBatch(reqs []oracle.PrepareRequest) ([]bool, error) {
	for _, r := range reqs {
		if r.StartTS == b.startTS {
			b.once.Do(func() {
				close(b.arrived)
				<-b.release
			})
		}
	}
	return b.Backend.PrepareBatch(reqs)
}

// fixedResolver answers every status lookup with one fixed reply, counting
// the lookups.
type fixedResolver struct {
	Backend
	st    oracle.TxnStatus
	err   error
	asked *int
}

func (r fixedResolver) ResolveStatus(uint64) (oracle.TxnStatus, error) {
	*r.asked++
	return r.st, r.err
}

// TestResolveStatusMergesAnswers: the coordinator's in-doubt lookup merges
// the partitions' answers as its queries do (committed beats aborted beats
// unknown beats pending), stops at a committed answer, and reports a
// transport failure only when the merged answer is still pending.
func TestResolveStatusMergesAnswers(t *testing.T) {
	var (
		lost      = errors.New("partition unreachable")
		pending   = oracle.TxnStatus{Status: oracle.StatusPending}
		unknown   = oracle.TxnStatus{Status: oracle.StatusUnknown}
		aborted   = oracle.TxnStatus{Status: oracle.StatusAborted}
		committed = oracle.TxnStatus{Status: oracle.StatusCommitted, CommitTS: 7}
	)
	type reply struct {
		st  oracle.TxnStatus
		err error
	}
	for _, c := range []struct {
		name    string
		replies [2]reply
		want    oracle.TxnStatus
		wantErr bool
		asked   int
	}{
		{"lost-then-pending", [2]reply{{err: lost}, {st: pending}}, oracle.TxnStatus{}, true, 2},
		{"lost-then-committed", [2]reply{{err: lost}, {st: committed}}, committed, false, 2},
		{"aborted-then-lost", [2]reply{{st: aborted}, {err: lost}}, aborted, false, 2},
		{"unknown-then-pending", [2]reply{{st: unknown}, {st: pending}}, unknown, false, 2},
		{"pending-then-aborted", [2]reply{{st: pending}, {st: aborted}}, aborted, false, 2},
		{"committed-stops", [2]reply{{st: committed}, {err: lost}}, committed, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			clock := tso.New(0, nil)
			asked := 0
			backends := make([]Backend, 2)
			for i, r := range c.replies {
				so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
				if err != nil {
					t.Fatal(err)
				}
				backends[i] = fixedResolver{Local{so}, r.st, r.err, &asked}
			}
			co, err := NewCoordinator(Config{Engine: oracle.WSI, Backends: backends})
			if err != nil {
				t.Fatal(err)
			}
			got, err := co.ResolveStatus(1)
			if (err != nil) != c.wantErr || got != c.want {
				t.Fatalf("ResolveStatus = %+v, %v; want %+v, error %v", got, err, c.want, c.wantErr)
			}
			if asked != c.asked {
				t.Fatalf("%d partitions asked, want %d", asked, c.asked)
			}
		})
	}
}
