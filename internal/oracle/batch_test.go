package oracle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tso"
	"repro/internal/wal"
)

// randomRequests builds a request stream over a small row universe so
// conflicts (and, with bounded memory, evictions) are frequent. Start
// timestamps are pre-allocated 1..n from a fresh TSO, so two oracles fed the
// same stream are in identical timestamp states.
func randomRequests(rng *rand.Rand, n, rows int) []CommitRequest {
	reqs := make([]CommitRequest, n)
	for i := range reqs {
		reqs[i].StartTS = uint64(i + 1)
		if rng.Intn(8) == 0 {
			continue // read-only
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			reqs[i].WriteSet = append(reqs[i].WriteSet, RowID(rng.Intn(rows)))
		}
		for j := 0; j < rng.Intn(5); j++ {
			reqs[i].ReadSet = append(reqs[i].ReadSet, RowID(rng.Intn(rows)))
		}
	}
	return reqs
}

// burnStarts consumes the start-timestamp range 1..n so commit timestamps
// begin at n+1, as they would after n Begin calls.
func burnStarts(t *testing.T, clock *tso.Oracle, n int) {
	t.Helper()
	if _, err := clock.NextBlock(n, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCommitBatchMatchesSerial asserts every decision entry point is
// bit-identical to a serial Commit sequence over the same request order: same
// commit/abort decisions, same commit timestamps, intra-batch conflicts
// honored, for both engines, with and without bounded lastCommit memory
// (eviction + Tmax), and across varying batch sizes. Besides CommitBatch it
// drives the coordinator's two-phase entry points at the serial run's commit
// timestamps: one PrepareBatch + DecideBatch per write request.
func TestCommitBatchMatchesSerial(t *testing.T) {
	for _, engine := range []Engine{SI, WSI} {
		for _, maxRows := range []int{0, 8} {
			name := fmt.Sprintf("%v/maxRows=%d", engine, maxRows)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(maxRows)*31 + 1))
				const n, rows = 600, 24
				reqs := randomRequests(rng, n, rows)
				cfg := Config{Engine: engine, MaxRows: maxRows}
				fresh := func() *StatusOracle {
					t.Helper()
					clock := tso.New(0, nil)
					c := cfg
					c.TSO = clock
					so, err := New(c)
					if err != nil {
						t.Fatal(err)
					}
					burnStarts(t, clock, n)
					return so
				}

				serial := fresh()
				want := make([]CommitResult, n)
				for i, req := range reqs {
					res, err := serial.Commit(req)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = res
				}
				check := func(path string, so *StatusOracle, got []CommitResult) {
					t.Helper()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: request %d: got %+v, serial %+v", path, i, got[i], want[i])
						}
					}
					// The surviving oracle state must match too.
					if gt, st := so.Tmax(), serial.Tmax(); gt != st {
						t.Fatalf("%s: Tmax %d, serial %d", path, gt, st)
					}
					if gr, sr := so.RetainedRows(), serial.RetainedRows(); gr != sr {
						t.Fatalf("%s: retained rows %d, serial %d", path, gr, sr)
					}
					for r := 0; r < rows; r++ {
						gtc, gok := so.LastCommitOf(RowID(r))
						stc, sok := serial.LastCommitOf(RowID(r))
						if gtc != stc || gok != sok {
							t.Fatalf("%s: lastCommit[%d] (%d,%v), serial (%d,%v)", path, r, gtc, gok, stc, sok)
						}
					}
				}
				// prepareOf is request i's prepare slice.
				prepareOf := func(i int) PrepareRequest {
					return PrepareRequest{
						StartTS:  reqs[i].StartTS,
						WriteSet: reqs[i].WriteSet,
						ReadSet:  reqs[i].ReadSet,
					}
				}

				batched := fresh()
				got := make([]CommitResult, 0, n)
				for lo := 0; lo < n; {
					hi := lo + 1 + rng.Intn(64)
					if hi > n {
						hi = n
					}
					res, err := batched.CommitBatch(reqs[lo:hi])
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, res...)
					lo = hi
				}
				check("CommitBatch", batched, got)

				twoPhase := fresh()
				gotTwoPhase := make([]CommitResult, n)
				for i := range reqs {
					if reqs[i].ReadOnly() {
						gotTwoPhase[i] = CommitResult{Committed: true, CommitTS: reqs[i].StartTS}
						continue
					}
					// The decide commits at the serial run's commit
					// timestamp (unused when the request aborts).
					pr := prepareOf(i)
					votes, err := twoPhase.PrepareBatch([]PrepareRequest{pr})
					if err != nil {
						t.Fatal(err)
					}
					d := Decision{StartTS: pr.StartTS, CommitTS: want[i].CommitTS, Commit: votes[0]}
					if err := twoPhase.DecideBatch([]Decision{d}); err != nil {
						t.Fatal(err)
					}
					if votes[0] {
						gotTwoPhase[i] = CommitResult{Committed: true, CommitTS: want[i].CommitTS}
					}
				}
				check("PrepareBatch+DecideBatch", twoPhase, gotTwoPhase)
				if n := twoPhase.PreparedCount(); n != 0 {
					t.Fatalf("%d prepares left undecided", n)
				}
			})
		}
	}
}

// TestCommitBatchIntraBatchConflict pins the within-batch rule: an earlier
// commit in the same batch conflicts with a later request exactly as if the
// two had been submitted serially.
func TestCommitBatchIntraBatchConflict(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := New(Config{Engine: WSI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := so.Begin()
	t2, _ := so.Begin()
	t3, _ := so.Begin()
	res, err := so.CommitBatch([]CommitRequest{
		{StartTS: t1, WriteSet: []RowID{1}},                      // commits
		{StartTS: t2, WriteSet: []RowID{2}, ReadSet: []RowID{1}}, // reads 1 → intra-batch WSI conflict
		{StartTS: t3, WriteSet: []RowID{3}, ReadSet: []RowID{2}}, // reads 2; txn 2 aborted, so no conflict
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed {
		t.Fatal("first batch entry should commit")
	}
	if res[1].Committed {
		t.Fatal("second batch entry read the first's write row and must abort")
	}
	if !res[2].Committed {
		t.Fatal("third batch entry conflicts only with an aborted entry and must commit")
	}
	if res[2].CommitTS != res[0].CommitTS+1 {
		t.Fatalf("commit timestamps not contiguous: %d then %d", res[0].CommitTS, res[2].CommitTS)
	}
}

// TestCommitBatchReadOnlyFastPath checks read-only members of a batch commit
// at their snapshot without consuming timestamps.
func TestCommitBatchReadOnlyFastPath(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := New(Config{Engine: WSI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := so.Begin()
	t2, _ := so.Begin()
	res, err := so.CommitBatch([]CommitRequest{
		{StartTS: t1, ReadSet: []RowID{1}}, // read-only: empty write set
		{StartTS: t2, WriteSet: []RowID{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Committed || res[0].CommitTS != t1 {
		t.Fatalf("read-only result = %+v, want committed at %d", res[0], t1)
	}
	if !res[1].Committed || res[1].CommitTS != t2+1 {
		t.Fatalf("write result = %+v, want committed at %d", res[1], t2+1)
	}
}

// TestCommitBatchEmptyAndAllReadOnly covers the no-write-request paths.
func TestCommitBatchEmptyAndAllReadOnly(t *testing.T) {
	so, err := New(Config{Engine: WSI, TSO: tso.New(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := so.CommitBatch(nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	res, err := so.CommitBatch([]CommitRequest{{StartTS: 5}, {StartTS: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Committed {
			t.Fatalf("read-only entry %d not committed", i)
		}
	}
	if s := so.Stats(); s.Batches != 0 {
		t.Fatalf("read-only-only batch counted: Batches = %d, want 0", s.Batches)
	}
}

// TestCommitBatchStress runs concurrent batches under the race detector and
// asserts global invariants: every committed timestamp unique, commit
// timestamps from one batch contiguous within the batch, no errors.
func TestCommitBatchStress(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := New(Config{Engine: WSI, MaxRows: 64, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, batches, size = 8, 40, 16
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for b := 0; b < batches; b++ {
				reqs := make([]CommitRequest, size)
				for i := range reqs {
					ts, err := so.Begin()
					if err != nil {
						t.Errorf("begin: %v", err)
						return
					}
					reqs[i].StartTS = ts
					for j := 0; j < 1+rng.Intn(3); j++ {
						reqs[i].WriteSet = append(reqs[i].WriteSet, RowID(rng.Intn(256)))
					}
					reqs[i].ReadSet = append(reqs[i].ReadSet, RowID(rng.Intn(256)))
				}
				res, err := so.CommitBatch(reqs)
				if err != nil {
					t.Errorf("commit batch: %v", err)
					return
				}
				var prev uint64
				mu.Lock()
				for i := range res {
					if !res[i].Committed {
						continue
					}
					if seen[res[i].CommitTS] {
						t.Errorf("commit timestamp %d assigned twice", res[i].CommitTS)
					}
					seen[res[i].CommitTS] = true
					if prev != 0 && res[i].CommitTS != prev+1 {
						t.Errorf("batch commit timestamps not contiguous: %d after %d", res[i].CommitTS, prev)
					}
					prev = res[i].CommitTS
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	st := so.Stats()
	if st.Commits+st.ConflictAborts != goroutines*batches*size {
		t.Fatalf("per-transaction accounting: commits %d + aborts %d != %d",
			st.Commits, st.ConflictAborts, goroutines*batches*size)
	}
	if st.Batches != goroutines*batches {
		t.Fatalf("Batches = %d, want %d", st.Batches, goroutines*batches)
	}
	if st.BatchSizeAvg != size {
		t.Fatalf("BatchSizeAvg = %v, want %d", st.BatchSizeAvg, size)
	}
}

// TestCommitBatchWALRecovery replays batch-encoded WAL records into a fresh
// oracle and checks the recovered state answers exactly like the original.
func TestCommitBatchWALRecovery(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	clock := tso.New(0, w)
	so, err := New(Config{Engine: WSI, MaxRows: 16, WAL: w, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var reqs []CommitRequest
	for i := 0; i < 48; i++ {
		ts, err := so.Begin()
		if err != nil {
			t.Fatal(err)
		}
		req := CommitRequest{StartTS: ts}
		for j := 0; j < 1+rng.Intn(3); j++ {
			req.WriteSet = append(req.WriteSet, RowID(rng.Intn(32)))
		}
		req.ReadSet = append(req.ReadSet, RowID(rng.Intn(32)))
		reqs = append(reqs, req)
	}
	var all []CommitResult
	for lo := 0; lo < len(reqs); lo += 12 {
		res, err := so.CommitBatch(reqs[lo : lo+12])
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res...)
	}
	w.Flush()

	recovered, _, err := RecoverState(Config{Engine: WSI, MaxRows: 16}, ledger, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want := TxnStatus{Status: StatusAborted}
		if all[i].Committed {
			want = TxnStatus{Status: StatusCommitted, CommitTS: all[i].CommitTS}
		}
		got := recovered.Query(req.StartTS)
		if got != want {
			t.Fatalf("txn %d (start %d): recovered %+v, want %+v", i, req.StartTS, got, want)
		}
	}
	if rt, ot := recovered.Tmax(), so.Tmax(); rt != ot {
		t.Fatalf("recovered Tmax %d, original %d", rt, ot)
	}
	for r := 0; r < 32; r++ {
		rtc, rok := recovered.LastCommitOf(RowID(r))
		otc, ook := so.LastCommitOf(RowID(r))
		if rtc != otc || rok != ook {
			t.Fatalf("lastCommit[%d]: recovered (%d,%v), original (%d,%v)", r, rtc, rok, otc, ook)
		}
	}
}

// TestCommitBatchRecordRoundTrip exercises the batch record codec directly,
// including rejection of corrupt input.
func TestCommitBatchRecordRoundTrip(t *testing.T) {
	reqs := []CommitRequest{
		{StartTS: 3, WriteSet: []RowID{1, 2, 3}},
		{StartTS: 4, WriteSet: []RowID{4}}, // aborted: not in the record
		{StartTS: 5, WriteSet: nil},
		{StartTS: 7, WriteSet: []RowID{9}},
	}
	committed := []int{0, 2, 3}
	enc := appendCommitBatchRecord(nil, reqs, committed, 10)
	dec, err := decodeCommitBatchRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(committed) {
		t.Fatalf("decoded %d commits, want %d", len(dec), len(committed))
	}
	for k, i := range committed {
		if want := uint64(10 + k); dec[k].StartTS != reqs[i].StartTS || dec[k].CommitTS != want ||
			len(dec[k].WriteSet) != len(reqs[i].WriteSet) {
			t.Fatalf("entry %d: %+v, want start %d commit %d rows %v", k, dec[k], reqs[i].StartTS, want, reqs[i].WriteSet)
		}
	}
	if _, err := decodeCommitBatchRecord(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated record decoded without error")
	}
	if _, err := decodeCommitBatchRecord(append(enc, 0)); err == nil {
		t.Fatal("padded record decoded without error")
	}
	if _, err := decodeCommitBatchRecord([]byte{recAbort, 0}); err == nil {
		t.Fatal("foreign record decoded without error")
	}
}

// failingLedger rejects every append, driving the timestamp oracle into its
// permanent failed state.
type failingLedger struct{}

func (failingLedger) AppendBatch([]byte) (int, error) { return 0, fmt.Errorf("ledger down") }
func (failingLedger) NumBatches() (int, error)        { return 0, nil }
func (failingLedger) ReadBatch(int) ([]byte, error)   { return nil, fmt.Errorf("ledger down") }

// TestCommitBatchLatchesTSOFailure checks that a mid-batch timestamp-oracle
// failure poisons the status oracle explicitly: the failing batch errors,
// and every later commit fails fast with the same error instead of being
// silently aborted by leftover placeholder state.
func TestCommitBatchLatchesTSOFailure(t *testing.T) {
	w, err := wal.NewWriter(wal.Config{}, failingLedger{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	clock := tso.New(4, w) // tiny reservation: the batch forces an extension
	so, err := New(Config{Engine: WSI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]CommitRequest, 8)
	for i := range reqs {
		reqs[i] = CommitRequest{StartTS: uint64(i + 1), WriteSet: []RowID{RowID(i)}}
	}
	if _, err := so.CommitBatch(reqs); err == nil {
		t.Fatal("commit batch succeeded with a dead timestamp ledger")
	}
	// The oracle is latched: later commits fail fast with an error, not a
	// silent conflict abort.
	if _, err := so.Commit(CommitRequest{StartTS: 100, WriteSet: []RowID{99}}); err == nil {
		t.Fatal("commit after TSO failure returned a decision instead of an error")
	}
}

// TestPublishCommits: PublishCommits commits its start timestamps at one
// contiguous block drawn after them, logs them so a recovery answers them
// alone, and a later decide of the same commit (partition 0 covering its
// own round) keeps one eviction-FIFO entry.
func TestPublishCommits(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{Quorum: 1}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	so, err := New(Config{Engine: WSI, MaxCommits: 8, TSO: tso.New(0, nil), WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := so.Begin()
	b, _ := so.Begin()
	if _, err := so.PrepareBatch([]PrepareRequest{{StartTS: a, WriteSet: []RowID{1}}}); err != nil {
		t.Fatal(err)
	}
	lo, err := so.PublishCommits([]uint64{a, b})
	if err != nil || lo <= b {
		t.Fatalf("publish: lo=%d err=%v, want a block above %d", lo, err, b)
	}
	if err := so.DecideBatch([]Decision{{StartTS: a, CommitTS: lo, Commit: true}}); err != nil {
		t.Fatal(err)
	}
	if n := len(so.table.order); n != 2 {
		t.Fatalf("eviction FIFO holds %d entries for 2 commits", n)
	}
	w.Flush()
	rec, _, err := RecoverState(Config{Engine: WSI}, ledger, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, ts := range []uint64{a, b} {
		if st := rec.Query(ts); st.Status != StatusCommitted || st.CommitTS != lo+uint64(k) {
			t.Fatalf("recovered status of %d = %+v, want committed at %d", ts, st, lo+uint64(k))
		}
	}
	if _, err := so.PublishCommits(nil); err == nil {
		t.Fatal("an empty publication succeeded")
	}
}
