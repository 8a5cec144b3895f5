package oracle

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/tso"
	"repro/internal/wal"
)

// newCheckpointTestWriter builds a fast-flushing writer over one ledger.
func newCheckpointTestWriter(t *testing.T, l wal.Ledger) *wal.Writer {
	t.Helper()
	w, err := wal.NewWriter(wal.Config{}, l)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	return w
}

func TestCheckpointRecordRoundTrip(t *testing.T) {
	cp := &checkpointState{
		TSOBound: 12345,
		LowWater: 77,
		Commits:  []commitPair{{1, 2}, {5, 9}},
		Aborted:  []uint64{3, 11},
		Order:    []uint64{1, 5},
		Tmax:     4,
		Rows:     []evictEntry{{row: 7, ts: 2}},
		Queue:    []evictEntry{{row: 7, ts: 2}},
	}
	got, err := decodeCheckpointRecord(encodeCheckpointRecord(cp))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.TSOBound != cp.TSOBound || got.LowWater != cp.LowWater ||
		!reflect.DeepEqual(got.Commits, cp.Commits) ||
		!reflect.DeepEqual(got.Aborted, cp.Aborted) ||
		!reflect.DeepEqual(got.Order, cp.Order) ||
		got.Tmax != cp.Tmax ||
		!reflect.DeepEqual(got.Rows, cp.Rows) ||
		!reflect.DeepEqual(got.Queue, cp.Queue) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cp)
	}
	if _, err := decodeCheckpointRecord([]byte{recCheckpoint, 1, 2}); err == nil {
		t.Fatalf("truncated record decoded without error")
	}
}

// TestShardedCheckpointRefused: a checkpoint with two lastCommit sections,
// the layout a server with a lock-striped lastCommit wrote, fails recovery
// with an error that names the count.
func TestShardedCheckpointRefused(t *testing.T) {
	ledger := wal.NewMemLedger()
	w := newCheckpointTestWriter(t, ledger)
	if err := w.AppendAll(shardedCheckpointRecord); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, _, err := RecoverState(Config{Engine: WSI}, ledger, nil, 0)
	if err == nil || !strings.Contains(err.Error(), "2 lastCommit shards") {
		t.Fatalf("recovering a two-section checkpoint: err = %v, want one naming 2 lastCommit shards", err)
	}
}

// runMixedLog drives a workload with interleaved checkpoints on a durable
// oracle: batched commits with intra-batch conflicts, explicit aborts, and
// an eviction-heavy bounded configuration, so every recoverable structure
// (commit table, order FIFO, low-water mark, lastCommit, queues, tmax) is
// exercised. Returns the suffix record count after the last checkpoint.
func runMixedLog(t *testing.T, so *StatusOracle, checkpointEvery int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	suffix := 0
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(6)
		reqs := make([]CommitRequest, n)
		for j := range reqs {
			ts, err := so.Begin()
			if err != nil {
				t.Fatalf("begin: %v", err)
			}
			ws := make([]RowID, 1+rng.Intn(3))
			for k := range ws {
				ws[k] = RowID(rng.Intn(40))
			}
			reqs[j] = CommitRequest{StartTS: ts, WriteSet: ws, ReadSet: ws}
		}
		if _, err := so.CommitBatch(reqs); err != nil {
			t.Fatalf("commit batch: %v", err)
		}
		suffix++
		if rng.Intn(4) == 0 {
			ts, _ := so.Begin()
			if err := so.Abort(ts); err != nil {
				t.Fatalf("abort: %v", err)
			}
			suffix++
		}
		if checkpointEvery > 0 && (i+1)%checkpointEvery == 0 {
			if err := so.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			suffix = 0
		}
	}
	return suffix
}

// TestCheckpointedRecoveryEquivalence is the mixed-log equivalence test: a
// log with interleaved checkpoints, recovered through the bounded path,
// must produce state bit-identical to a full replay of the same decisions
// — and must demonstrably replay only the post-checkpoint suffix.
func TestCheckpointedRecoveryEquivalence(t *testing.T) {
	cfg := Config{Engine: WSI, MaxRows: 16, MaxCommits: 32}
	ledger := wal.NewMemLedger()
	w := newCheckpointTestWriter(t, ledger)
	cfg.WAL = w
	cfg.TSO = tso.New(100, w)
	live, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	suffix := runMixedLog(t, live, 10)
	w.Flush()

	// Bounded recovery from the checkpointed log.
	bounded, _, err := RecoverState(Config{Engine: WSI, MaxRows: 16, MaxCommits: 32}, ledger, nil, 0)
	if err != nil {
		t.Fatalf("bounded recover: %v", err)
	}

	// Ground truth: full replay of the same decisions with the checkpoint
	// records stripped out.
	stripped := wal.NewMemLedger()
	sw := newCheckpointTestWriter(t, stripped)
	var total, checkpoints int
	err = wal.Replay(ledger, func(entry []byte) error {
		switch entry[0] {
		case recCheckpoint:
			checkpoints++
			return nil
		case recCommitBatch, recAbort:
			total++
		}
		// Foreign records (timestamp reservations) are copied but not
		// counted: replay skips them.
		return sw.Append(entry)
	})
	if err != nil {
		t.Fatalf("strip checkpoints: %v", err)
	}
	sw.Flush()
	full, _, err := RecoverState(Config{Engine: WSI, MaxRows: 16, MaxCommits: 32}, stripped, nil, 0)
	if err != nil {
		t.Fatalf("full recover: %v", err)
	}
	if checkpoints == 0 {
		t.Fatalf("workload wrote no checkpoints")
	}

	liveState := live.captureCheckpoint(0)
	boundedState := bounded.captureCheckpoint(0)
	fullState := full.captureCheckpoint(0)
	if !reflect.DeepEqual(boundedState, fullState) {
		t.Fatalf("bounded recovery state differs from full replay:\nbounded %+v\nfull    %+v", boundedState, fullState)
	}
	if !reflect.DeepEqual(boundedState, liveState) {
		t.Fatalf("recovered state differs from the live oracle:\nrecovered %+v\nlive      %+v", boundedState, liveState)
	}

	// The bounded path must have replayed only the post-checkpoint suffix.
	bs := bounded.Stats()
	if bs.ReplayedRecords != int64(suffix) {
		t.Fatalf("bounded recovery replayed %d records, want the %d-record suffix", bs.ReplayedRecords, suffix)
	}
	if bs.ReplayedRecords >= int64(total) {
		t.Fatalf("bounded recovery replayed %d of %d records: not bounded", bs.ReplayedRecords, total)
	}
	if bs.LastCheckpointTS == 0 {
		t.Fatalf("recovery did not surface the checkpoint bound")
	}
	fs := full.Stats()
	if fs.ReplayedRecords != int64(total) {
		t.Fatalf("full replay replayed %d records, want %d", fs.ReplayedRecords, total)
	}
}

// TestRecoverStateResumesTimestampEpoch verifies the checkpoint carries the
// TSO epoch: a recovered server's first timestamp is strictly above every
// timestamp the previous incarnation could have issued, even though only
// the checkpoint suffix was scanned.
func TestRecoverStateResumesTimestampEpoch(t *testing.T) {
	ledger := wal.NewMemLedger()
	w := newCheckpointTestWriter(t, ledger)
	clock := tso.New(50, w)
	so, err := New(Config{Engine: SI, WAL: w, TSO: clock})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	var lastIssued uint64
	for i := 0; i < 120; i++ {
		ts, err := so.Begin()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		res, err := so.Commit(CommitRequest{StartTS: ts, WriteSet: []RowID{RowID(i)}})
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		if res.Committed {
			lastIssued = res.CommitTS
		}
		if i == 60 {
			if err := so.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	w.Flush()

	w2 := newCheckpointTestWriter(t, ledger)
	recovered, clock2, err := RecoverState(Config{Engine: SI}, ledger, w2, 50)
	if err != nil {
		t.Fatalf("recover state: %v", err)
	}
	ts, err := recovered.Begin()
	if err != nil {
		t.Fatalf("begin after recovery: %v", err)
	}
	if ts <= lastIssued {
		t.Fatalf("post-recovery timestamp %d not above pre-crash %d", ts, lastIssued)
	}
	if clock2.Last() != ts {
		t.Fatalf("clock mismatch: %d vs %d", clock2.Last(), ts)
	}
	// Every pre-crash commit is visible.
	for start := uint64(1); start <= lastIssued; start++ {
		st := recovered.Query(start)
		want := so.Query(start)
		if st != want {
			t.Fatalf("status of %d diverged after recovery: %+v vs %+v", start, st, want)
		}
	}
}

// TestCheckpointDuringConcurrentCommits races the checkpointer against
// batched commits and verifies that recovery from the resulting log never
// loses an acked commit.
func TestCheckpointDuringConcurrentCommits(t *testing.T) {
	ledger := wal.NewMemLedger()
	w := newCheckpointTestWriter(t, ledger)
	cfg := Config{Engine: SI, WAL: w, TSO: tso.New(0, w)}
	so, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	type acked struct{ start, commit uint64 }
	results := make(chan []acked, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			var mine []acked
			for i := 0; i < 50; i++ {
				ts, err := so.Begin()
				if err != nil {
					break
				}
				res, err := so.Commit(CommitRequest{StartTS: ts, WriteSet: []RowID{RowID(g*1000 + i)}})
				if err == nil && res.Committed {
					mine = append(mine, acked{ts, res.CommitTS})
				}
			}
			results <- mine
		}(g)
	}
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				if err := so.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				// Checkpoints are periodic in production; a zero-gap
				// loop would monopolize the freeze window and starve
				// the TSO's reservation extensions.
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	var all []acked
	for g := 0; g < 4; g++ {
		all = append(all, <-results...)
	}
	close(done)
	w.Flush()

	recovered, _, err := RecoverState(Config{Engine: SI}, ledger, nil, 0)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, a := range all {
		st := recovered.Query(a.start)
		if st.Status != StatusCommitted || st.CommitTS != a.commit {
			t.Fatalf("acked commit %d lost after recovery: %+v", a.start, st)
		}
	}
}

// TestCheckpointRoundTripsPrepares: the prepared section round-trips, and
// a checkpoint cut short before it is rejected as truncated (a checkpoint
// without one has the retired kind, which replay rejects outright).
func TestCheckpointRoundTripsPrepares(t *testing.T) {
	cp := &checkpointState{
		TSOBound: 7,
		LowWater: 3,
		Commits:  []commitPair{{StartTS: 1, CommitTS: 2}},
		Aborted:  []uint64{5},
		Tmax:     4,
		Rows:     []evictEntry{{row: 9, ts: 2}},
		Prepared: []PrepareRequest{{StartTS: 11, WriteSet: []RowID{9}}},
	}
	rec := encodeCheckpointRecord(cp)
	got, err := decodeCheckpointRecord(rec)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(got.Prepared) != 1 || got.Prepared[0].StartTS != 11 || got.TSOBound != 7 || got.Tmax != 4 {
		t.Fatalf("checkpoint decoded wrong: %+v", got)
	}
	cp.Prepared = nil
	rec = encodeCheckpointRecord(cp)
	if _, err := decodeCheckpointRecord(rec[:len(rec)-4]); err == nil {
		t.Fatal("a checkpoint without its prepared section decoded")
	}
}
