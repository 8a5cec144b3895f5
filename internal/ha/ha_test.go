package ha

import (
	"errors"
	"math/rand"
	"sync"
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
	sb.Start(time.Millisecond)

	acked := commitN(t, primary, 300, 0)
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for k, v := range commitN(t, primary, 100, 1000) {
		acked[k] = v
	}
	w.Flush()

	// The tailer catches up without promotion.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := sb.Applied(); n >= 400 {
			break
		}
		if time.Now().After(deadline) {
			n, _ := sb.Applied()
			t.Fatalf("standby applied %d records, want >= 400", n)
		}
		time.Sleep(time.Millisecond)
	}

	newLedger := wal.NewMemLedger()
	promoted, err := sb.Promote(PromoteConfig{Fence: ledgers, WAL: newWriter(t, newLedger)})
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
	recovered, err := oracle.Recover(oracle.Config{Engine: oracle.SI, TSO: tso.New(0, nil)}, newLedger)
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
// ledgers to block the old primary's quorum must fail.
func TestFailoverPromotionRequiresQuorumOfSeals(t *testing.T) {
	sealable := wal.NewMemLedger()
	sb, err := NewStandby(oracle.Config{Engine: oracle.SI}, sealable)
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	_, err = sb.Promote(PromoteConfig{Fence: []wal.Ledger{sealable, wal.DiscardLedger{}}})
	if err == nil {
		t.Fatalf("promotion succeeded with an unsealable ledger in the fence")
	}
	// With MinSeals relaxed to 1 the same fence is acceptable.
	sb2, _ := NewStandby(oracle.Config{Engine: oracle.SI}, wal.NewMemLedger())
	if _, err := sb2.Promote(PromoteConfig{Fence: []wal.Ledger{wal.NewMemLedger(), wal.DiscardLedger{}}, MinSeals: 1}); err != nil {
		t.Fatalf("promotion with MinSeals=1: %v", err)
	}
}

// TestFailoverChaosPromotionRace races promotion against concurrent CommitBatch
// and QueryBatch traffic (run with -race). The invariant under test is the
// acked-commit one: every commit acknowledged by the primary — before or
// during the failover — is visible on the promoted oracle with the same
// commit timestamp, and the old primary never acks after the fence wins.
func TestFailoverChaosPromotionRace(t *testing.T) {
	ledgers := []wal.Ledger{wal.NewMemLedger(), wal.NewMemLedger(), wal.NewMemLedger()}
	primary, w := newPrimary(t, ledgers...)
	sb, err := NewStandby(oracle.Config{Engine: oracle.SI}, ledgers[0])
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	sb.Start(time.Millisecond)

	type ack struct{ start, commit uint64 }
	const workers = 4
	ackCh := make(chan []ack, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []ack
			for i := 0; ; i++ {
				select {
				case <-stop:
					ackCh <- mine
					return
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
						mine = append(mine, ack{reqs[k].StartTS, res.CommitTS})
					}
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
		}(g)
	}

	time.Sleep(20 * time.Millisecond)
	if err := primary.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	time.Sleep(10 * time.Millisecond)

	promoted, err := sb.Promote(PromoteConfig{Fence: ledgers, WAL: newWriter(t, wal.NewMemLedger())})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	// Let workers run a little longer against the fenced primary, then
	// collect their acks.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	w.Flush()

	var all []ack
	for g := 0; g < workers; g++ {
		all = append(all, <-ackCh...)
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
	recovered, err := oracle.Recover(oracle.Config{Engine: oracle.SI, TSO: tso.New(0, nil)}, ledger)
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
