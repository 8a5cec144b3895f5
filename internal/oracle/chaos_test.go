package oracle

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tso"
	"repro/internal/wal"
)

// TestPropertyBoundedRefinesUnbounded: the bounded-memory oracle
// (Algorithm 3) may only *add* pessimistic aborts relative to the
// unbounded one. On identical request streams the decisions coincide until
// the first divergence, and that divergence can only be a bounded-side
// pessimistic abort (Tmax, line 8) — never a bounded-side commit the
// unbounded oracle would refuse. After a divergence the two oracles'
// commit-timestamp streams drift apart, so the comparison stops there.
// This is the safety half of the paper's claim that bounding lastCommit is
// sound.
func TestPropertyBoundedRefinesUnbounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bounded := newOracle(t, Config{Engine: WSI, MaxRows: 8})
		unbounded := newOracle(t, Config{Engine: WSI})
		type open struct{ b, u uint64 }
		var live []open
		for step := 0; step < 150; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				tx := live[k]
				live = append(live[:k], live[k+1:]...)
				var wset, rset []RowID
				for j := 0; j < 1+rng.Intn(3); j++ {
					wset = append(wset, RowID(rng.Intn(30)))
				}
				for j := 0; j < rng.Intn(3); j++ {
					rset = append(rset, RowID(rng.Intn(30)))
				}
				rb, err := bounded.Commit(CommitRequest{StartTS: tx.b, WriteSet: wset, ReadSet: rset})
				if err != nil {
					return false
				}
				ru, err := unbounded.Commit(CommitRequest{StartTS: tx.u, WriteSet: wset, ReadSet: rset})
				if err != nil {
					return false
				}
				if rb.Committed != ru.Committed {
					// The only legal divergence is a bounded-side
					// pessimistic abort.
					return !rb.Committed && ru.Committed
				}
				continue
			}
			b, err := bounded.Begin()
			if err != nil {
				return false
			}
			u, err := unbounded.Begin()
			if err != nil {
				return false
			}
			live = append(live, open{b: b, u: u})
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosRecoveryNeverLosesAckedCommits runs randomized workloads with
// repeated crash/recover cycles and checks the paper's durability
// contract (Appendix A): every commit that was acknowledged (its WAL write
// completed) is still visible — with the same commit timestamp — after any
// number of recoveries, and the recovered oracle never grants a commit
// that conflicts with a pre-crash acknowledged commit.
func TestChaosRecoveryNeverLosesAckedCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 5; round++ {
		ledger := wal.NewMemLedger()
		acked := make(map[uint64]uint64)  // startTS -> commitTS
		rowHigh := make(map[RowID]uint64) // row -> newest acked commit ts

		newIncarnation := func() (*StatusOracle, *wal.Writer) {
			w, err := wal.NewWriter(wal.Config{}, ledger)
			if err != nil {
				t.Fatal(err)
			}
			so, _, err := RecoverState(Config{Engine: WSI}, ledger, w, 50)
			if err != nil {
				t.Fatal(err)
			}
			return so, w
		}

		so, w := newIncarnation()
		for crash := 0; crash < 4; crash++ {
			// Run a burst of transactions.
			for i := 0; i < 30; i++ {
				ts, err := so.Begin()
				if err != nil {
					t.Fatal(err)
				}
				req := CommitRequest{StartTS: ts}
				for j := 0; j < 1+rng.Intn(3); j++ {
					req.WriteSet = append(req.WriteSet, RowID(rng.Intn(12)))
					req.ReadSet = append(req.ReadSet, RowID(rng.Intn(12)))
				}
				res, err := so.Commit(req)
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed {
					// Commit returned => WAL accepted the record
					// => acknowledged.
					acked[ts] = res.CommitTS
					for _, r := range req.WriteSet {
						if res.CommitTS > rowHigh[r] {
							rowHigh[r] = res.CommitTS
						}
					}
				}
			}
			// Crash: drop the oracle without any graceful flush
			// beyond what Commit already guaranteed.
			w.Close()
			so, w = newIncarnation()

			// Every acknowledged commit must survive verbatim.
			for start, commit := range acked {
				st := so.Query(start)
				if st.Status != StatusCommitted || st.CommitTS != commit {
					t.Fatalf("round %d crash %d: acked commit %d@%d lost (got %+v)",
						round, crash, start, commit, st)
				}
			}
			// The conflict state must survive too: lastCommit of
			// every row written by an acknowledged commit carries
			// at least that commit's timestamp, so a stale reader
			// of the row would still be aborted.
			for row, high := range rowHigh {
				tc, ok := so.LastCommitOf(row)
				if !ok || tc < high {
					t.Fatalf("round %d crash %d: lastCommit(%d) = %d,%v; acked high %d",
						round, crash, row, tc, ok, high)
				}
			}
		}
		w.Close()
	}
}

// TestRecoveryWithLaggingReplica exercises quorum recovery: commits ack at
// quorum 2 of 3; recovery from any single surviving ledger must still see
// every acknowledged commit when that ledger was in the ack quorum. With
// MemLedgers and no failures all three replicas are identical, so this
// asserts replica equivalence.
func TestRecoveryReplicaEquivalence(t *testing.T) {
	ledgers := []*wal.MemLedger{wal.NewMemLedger(), wal.NewMemLedger(), wal.NewMemLedger()}
	w, err := wal.NewWriter(wal.Config{Quorum: 3},
		ledgers[0], ledgers[1], ledgers[2])
	if err != nil {
		t.Fatal(err)
	}
	clock := tso.New(50, w)
	so, err := New(Config{Engine: WSI, WAL: w, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64)
	for i := 0; i < 25; i++ {
		ts := mustBegin(t, so)
		res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("k%d", i%7))})
		if res.Committed {
			acked[ts] = res.CommitTS
		}
	}
	w.Close()
	for i, ledger := range ledgers {
		so2, _, err := RecoverState(Config{Engine: WSI}, ledger, nil, 50)
		if err != nil {
			t.Fatalf("ledger %d: %v", i, err)
		}
		for start, commit := range acked {
			if st := so2.Query(start); st.Status != StatusCommitted || st.CommitTS != commit {
				t.Fatalf("ledger %d: commit %d@%d not recovered: %+v", i, start, commit, st)
			}
		}
	}
}
