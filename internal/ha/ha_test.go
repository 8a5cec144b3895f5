package ha

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

func newWriter(t *testing.T, ledgers ...wal.Ledger) *wal.Writer {
	t.Helper()
	w, err := wal.NewWriter(wal.Config{}, ledgers...)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	return w
}

func newPrimary(t *testing.T, ledgers ...wal.Ledger) (*oracle.StatusOracle, *wal.Writer) {
	t.Helper()
	w := newWriter(t, ledgers...)
	so, err := oracle.New(oracle.Config{Engine: oracle.SI, WAL: w, TSO: tso.New(500, w)})
	if err != nil {
		t.Fatalf("new primary: %v", err)
	}
	return so, w
}

func commitN(t *testing.T, so *oracle.StatusOracle, n, base int) map[uint64]uint64 {
	t.Helper()
	acked := make(map[uint64]uint64, n)
	for i := 0; i < n; i++ {
		ts, err := so.Begin()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		res, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(base + i)}})
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		if res.Committed {
			acked[ts] = res.CommitTS
		}
	}
	return acked
}

// TestFailoverStandbyTailsAndPromotes is the basic failover path: the standby
// catches up by tailing, promotion fences the primary, and every acked
// commit is visible on the promoted oracle with its original commit
// timestamp — while the old primary can no longer ack anything.
func TestFailoverStandbyTailsAndPromotes(t *testing.T) {
	ledgers := []wal.Ledger{wal.NewMemLedger(), wal.NewMemLedger(), wal.NewMemLedger()}
	primary, w := newPrimary(t, ledgers...)

	sb, err := NewStandby(oracle.Config{Engine: oracle.SI}, ledgers[0])
	if err != nil {
		t.Fatalf("standby: %v", err)
	}

	acked := commitN(t, primary, 300, 0)
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for k, v := range commitN(t, primary, 100, 1000) {
		acked[k] = v
	}
	w.Flush()

	// The tailer catches up without promotion.
	if n, err := sb.CatchUp(); err != nil || n < 400 {
		t.Fatalf("standby applied %d records (%v), want >= 400", n, err)
	}

	newLedger := wal.NewMemLedger()
	promoted, err := sb.Promote(PromoteConfig{Fence: ledgers, FenceEpoch: 1, WAL: newWriter(t, newLedger)})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}

	// The old primary is fenced: no commit can be acked anymore.
	ts, err := primary.Begin()
	if err != nil {
		t.Fatalf("begin on old primary: %v", err)
	}
	if _, err := primary.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{1}}); err == nil {
		t.Fatalf("old primary acked a commit after the fence")
	} else if !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("old primary failed with %v, want ErrFenced", err)
	}
	// And it stays latched even if the fence error was transient-looking.
	if _, err := primary.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{1}}); err == nil {
		t.Fatalf("old primary not latched after fence")
	}

	// Every acked commit survived with its commit timestamp.
	var maxCommit uint64
	for start, commit := range acked {
		st := promoted.Query(start)
		if st.Status != oracle.StatusCommitted || st.CommitTS != commit {
			t.Fatalf("acked commit %d invisible after promotion: %+v", start, st)
		}
		if commit > maxCommit {
			maxCommit = commit
		}
	}
	// The promoted epoch continues monotonically.
	nts, err := promoted.Begin()
	if err != nil {
		t.Fatalf("begin on promoted: %v", err)
	}
	if nts <= maxCommit {
		t.Fatalf("promoted timestamp %d not above old epoch %d", nts, maxCommit)
	}
	// The promoted oracle serves commits, and its new WAL is
	// self-contained: recovery from it alone reproduces the state.
	res, err := promoted.Commit(oracle.CommitRequest{StartTS: nts, WriteSet: []oracle.RowID{42}})
	if err != nil || !res.Committed {
		t.Fatalf("promoted commit: %v %+v", err, res)
	}
	promoted.Stats() // exercise counters
	recovered, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.SI}, newLedger, nil, 0)
	if err != nil {
		t.Fatalf("recover from post-promotion log: %v", err)
	}
	for start, commit := range acked {
		st := recovered.Query(start)
		if st.Status != oracle.StatusCommitted || st.CommitTS != commit {
			t.Fatalf("commit %d missing from self-contained post-promotion log: %+v", start, st)
		}
	}
}

// TestFailoverPromotionRequiresQuorumOfSeals: a fence that cannot seal enough
// ledgers to block the old primary's quorum must fail, and so must a fence
// without an epoch.
func TestFailoverPromotionRequiresQuorumOfSeals(t *testing.T) {
	sealable := wal.NewMemLedger()
	sb, err := NewStandby(oracle.Config{Engine: oracle.SI}, sealable)
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	if _, err := sb.Promote(PromoteConfig{Fence: []wal.Ledger{sealable}}); err == nil {
		t.Fatalf("promotion succeeded without a fence epoch")
	}
	if sealable.Sealed() {
		t.Fatalf("an epoch-less promotion sealed a ledger")
	}
	_, err = sb.Promote(PromoteConfig{Fence: []wal.Ledger{sealable, wal.DiscardLedger{}}, FenceEpoch: 1})
	if err == nil {
		t.Fatalf("promotion succeeded with an unsealable ledger in the fence")
	}
	// With MinSeals relaxed to 1 the same fence is acceptable.
	sb2, _ := NewStandby(oracle.Config{Engine: oracle.SI}, wal.NewMemLedger())
	if _, err := sb2.Promote(PromoteConfig{Fence: []wal.Ledger{wal.NewMemLedger(), wal.DiscardLedger{}}, MinSeals: 1, FenceEpoch: 1}); err != nil {
		t.Fatalf("promotion with MinSeals=1: %v", err)
	}
}

// TestFailoverChaosPromotionRace races promotion against concurrent CommitBatch
// and QueryBatch traffic and a tailing follower loop (run with -race). The
// invariant under test is the acked-commit one: every commit acknowledged by
// the primary — before or during the failover — is visible on the promoted
// oracle with the same commit timestamp, and the old primary never acks a
// batch submitted after the fence won. The schedule is paced by acked
// batches, not by the clock: checkpoint at 200, promote at 400.
func TestFailoverChaosPromotionRace(t *testing.T) {
	ledgers := []wal.Ledger{wal.NewMemLedger(), wal.NewMemLedger(), wal.NewMemLedger()}
	primary, w := newPrimary(t, ledgers...)
	sb, err := NewStandby(oracle.Config{Engine: oracle.SI}, ledgers[0])
	if err != nil {
		t.Fatalf("standby: %v", err)
	}

	// fenced is closed once promotion has returned, or when the test
	// fails before that, so no goroutine outlives the test.
	fenced := make(chan struct{})
	release := sync.OnceFunc(func() { close(fenced) })
	defer release()

	// The follower loop: tail until promotion retires the standby.
	tailed := make(chan struct{})
	go func() {
		defer close(tailed)
		for {
			select {
			case <-fenced:
				return
			default:
			}
			if _, err := sb.CatchUp(); err != nil {
				return
			}
			runtime.Gosched()
		}
	}()

	const (
		workers          = 4
		checkpointAt     = 200
		promoteAt        = 400
		roundsAfterFence = 20
	)
	type ack struct{ start, commit uint64 }
	var batches atomic.Int64
	reachedCheckpoint, reachedPromote := make(chan struct{}), make(chan struct{})
	ackCh := make(chan []ack, workers)
	lateAcks := make(chan int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []ack
			late, after := 0, 0
			for i := 0; after < roundsAfterFence; i++ {
				isFenced := false
				select {
				case <-fenced:
					isFenced = true
					after++
				default:
				}
				n := 1 + rng.Intn(4)
				reqs := make([]oracle.CommitRequest, 0, n)
				for j := 0; j < n; j++ {
					ts, err := primary.Begin()
					if err != nil {
						continue
					}
					reqs = append(reqs, oracle.CommitRequest{
						StartTS:  ts,
						WriteSet: []oracle.RowID{oracle.RowID(rng.Intn(1 << 20))},
					})
				}
				results, err := primary.CommitBatch(reqs)
				if err != nil {
					continue // fenced or racing the seal: not acked
				}
				for k, res := range results {
					if res.Committed {
						if isFenced {
							late++
						}
						mine = append(mine, ack{reqs[k].StartTS, res.CommitTS})
					}
				}
				switch batches.Add(1) {
				case checkpointAt:
					close(reachedCheckpoint)
				case promoteAt:
					close(reachedPromote)
				}
				// Concurrent snapshot-read traffic.
				if len(mine) > 0 && i%3 == 0 {
					lookups := make([]uint64, 0, 8)
					for _, a := range mine[max(0, len(mine)-8):] {
						lookups = append(lookups, a.start)
					}
					for _, st := range primary.QueryBatch(lookups) {
						_ = st
					}
				}
			}
			ackCh <- mine
			lateAcks <- late
		}(g)
	}

	<-reachedCheckpoint
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	<-reachedPromote
	promoted, err := sb.Promote(PromoteConfig{Fence: ledgers, FenceEpoch: 1, WAL: newWriter(t, wal.NewMemLedger())})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	<-tailed
	// Every worker runs more rounds against the fenced primary before the
	// acks are collected.
	release()
	wg.Wait()
	w.Flush()

	var all []ack
	for g := 0; g < workers; g++ {
		all = append(all, <-ackCh...)
		if late := <-lateAcks; late > 0 {
			t.Fatalf("fenced primary acked %d commits submitted after promotion", late)
		}
	}
	if len(all) == 0 {
		t.Fatalf("no commits acked before failover; test proves nothing")
	}
	lookups := make([]uint64, len(all))
	for i, a := range all {
		lookups[i] = a.start
	}
	statuses := promoted.QueryBatch(lookups)
	for i, st := range statuses {
		if st.Status != oracle.StatusCommitted || st.CommitTS != all[i].commit {
			t.Fatalf("acked commit start=%d commit=%d invisible after promotion: %+v",
				all[i].start, all[i].commit, st)
		}
	}
	t.Logf("verified %d acked commits across promotion", len(all))
}

// TestFailoverCheckpointerLoop: the periodic checkpointer writes checkpoints and
// bounds a subsequent recovery.
func TestFailoverCheckpointerLoop(t *testing.T) {
	ledger := wal.NewMemLedger()
	primary, w := newPrimary(t, ledger)
	ck := StartCheckpointer(primary, 5*time.Millisecond)
	acked := commitN(t, primary, 200, 0)
	deadline := time.Now().Add(2 * time.Second)
	for primary.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer wrote nothing: %v", ck.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
	ck.Stop()
	if err := ck.Err(); err != nil {
		t.Fatalf("checkpointer error: %v", err)
	}
	w.Flush()
	recovered, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.SI}, ledger, nil, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	st := recovered.Stats()
	if st.LastCheckpointTS == 0 {
		t.Fatalf("recovery found no checkpoint")
	}
	if st.ReplayedRecords >= 200 {
		t.Fatalf("recovery replayed %d records; checkpoint did not bound it", st.ReplayedRecords)
	}
	for start, commit := range acked {
		got := recovered.Query(start)
		if got.Status != oracle.StatusCommitted || got.CommitTS != commit {
			t.Fatalf("commit %d lost: %+v", start, got)
		}
	}
}
