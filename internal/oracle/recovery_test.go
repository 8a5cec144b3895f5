package oracle

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tso"
	"repro/internal/wal"
)

// durableOracle builds an oracle persisting to a fresh in-memory ledger
// trio; returns the primary ledger for later replay.
func durableOracle(t *testing.T, engine Engine, maxRows int) (*StatusOracle, *wal.MemLedger, *wal.Writer) {
	t.Helper()
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	clock := tso.New(100, w)
	so, err := New(Config{Engine: engine, MaxRows: maxRows, WAL: w, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	return so, ledger, w
}

func TestRecoverRebuildsCommitTable(t *testing.T) {
	so, ledger, w := durableOracle(t, WSI, 0)
	type committed struct{ start, commit uint64 }
	var history []committed
	for i := 0; i < 10; i++ {
		ts := mustBegin(t, so)
		res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("k%d", i))})
		if !res.Committed {
			t.Fatal("unexpected abort")
		}
		history = append(history, committed{ts, res.CommitTS})
	}
	aborted := mustBegin(t, so)
	if err := so.Abort(aborted); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	// "Crash" and recover from the ledger.
	so2, _, err := RecoverState(Config{Engine: WSI}, ledger, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range history {
		st := so2.Query(h.start)
		if st.Status != StatusCommitted || st.CommitTS != h.commit {
			t.Fatalf("recovered query(%d) = %+v, want committed@%d", h.start, st, h.commit)
		}
	}
	if st := so2.Query(aborted); st.Status != StatusAborted {
		t.Fatalf("recovered abort lost: %v", st.Status)
	}
}

func TestRecoverRebuildsLastCommit(t *testing.T) {
	so, ledger, w := durableOracle(t, SI, 0)
	tOld := mustBegin(t, so) // will straddle the crash
	tw := mustBegin(t, so)
	res := mustCommit(t, so, CommitRequest{StartTS: tw, WriteSet: rows("x")})
	if !res.Committed {
		t.Fatal("setup commit failed")
	}
	w.Flush()

	so2, _, err := RecoverState(Config{Engine: SI}, ledger, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	// tOld's write of x must conflict with the pre-crash commit.
	got := mustCommit(t, so2, CommitRequest{StartTS: tOld, WriteSet: rows("x")})
	if got.Committed {
		t.Fatal("recovered oracle forgot the committed write of x")
	}
	// And lastCommit must carry the exact timestamp.
	tc, ok := so2.LastCommitOf(HashRow("x"))
	if !ok || tc != res.CommitTS {
		t.Fatalf("recovered lastCommit(x) = %d,%v want %d", tc, ok, res.CommitTS)
	}
}

func TestRecoverEquivalentDecisions(t *testing.T) {
	// Run a random prefix, crash, recover, and check that a fresh
	// deterministic suffix of requests gets identical decisions from the
	// recovered oracle and from an oracle that never crashed.
	rng := rand.New(rand.NewSource(5))

	build := func() (*StatusOracle, *wal.MemLedger, *wal.Writer) {
		return durableOracle(t, WSI, 0)
	}
	soA, ledgerA, wA := build()
	soB, _, _ := build()

	type pending struct{ start uint64 }
	var liveA, liveB []pending
	for i := 0; i < 120; i++ {
		if len(liveA) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(liveA))
			wset := rows(fmt.Sprintf("r%d", rng.Intn(10)))
			rset := rows(fmt.Sprintf("r%d", rng.Intn(10)))
			ra := mustCommit(t, soA, CommitRequest{StartTS: liveA[k].start, WriteSet: wset, ReadSet: rset})
			rb := mustCommit(t, soB, CommitRequest{StartTS: liveB[k].start, WriteSet: wset, ReadSet: rset})
			if ra.Committed != rb.Committed {
				t.Fatalf("pre-crash divergence at step %d", i)
			}
			liveA = append(liveA[:k], liveA[k+1:]...)
			liveB = append(liveB[:k], liveB[k+1:]...)
			continue
		}
		liveA = append(liveA, pending{mustBegin(t, soA)})
		liveB = append(liveB, pending{mustBegin(t, soB)})
	}
	wA.Flush()

	// Crash A; recover as A2. B keeps running as the reference.
	soA2, _, err := RecoverState(Config{Engine: WSI}, ledgerA, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	// In-flight transactions died with their clients; both sides now run
	// an identical fresh suffix.
	for i := 0; i < 60; i++ {
		tsA := mustBegin(t, soA2)
		tsB := mustBegin(t, soB)
		wset := rows(fmt.Sprintf("r%d", rng.Intn(10)))
		rset := rows(fmt.Sprintf("r%d", rng.Intn(10)))
		ra := mustCommit(t, soA2, CommitRequest{StartTS: tsA, WriteSet: wset, ReadSet: rset})
		rb := mustCommit(t, soB, CommitRequest{StartTS: tsB, WriteSet: wset, ReadSet: rset})
		if ra.Committed != rb.Committed {
			t.Fatalf("post-recovery divergence at step %d: recovered=%v reference=%v",
				i, ra.Committed, rb.Committed)
		}
	}
}

func TestRecoverPreservesTmax(t *testing.T) {
	so, ledger, w := durableOracle(t, SI, 4)
	old := mustBegin(t, so)
	for i := 0; i < 20; i++ {
		ts := mustBegin(t, so)
		mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("f%d", i))})
	}
	w.Flush()
	wantTmax := so.Tmax()
	if wantTmax == 0 {
		t.Fatal("setup never evicted")
	}

	so2, _, err := RecoverState(Config{Engine: SI, MaxRows: 4}, ledger, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := so2.Tmax(); got != wantTmax {
		t.Fatalf("recovered Tmax = %d, want %d", got, wantTmax)
	}
	// The stale transaction must still abort after recovery.
	res := mustCommit(t, so2, CommitRequest{StartTS: old, WriteSet: rows("unseen")})
	if res.Committed {
		t.Fatal("recovered oracle lost the Tmax guard")
	}
}

// TestCommitRecordRoundTrip checks the abort record's codec, and that the
// abort decoder rejects a commit record.
func TestCommitRecordRoundTrip(t *testing.T) {
	commit := appendCommitBatchRecord(nil, []CommitRequest{{StartTS: 1}}, []int{0}, 2)
	if _, err := decodeAbortRecord(commit); err == nil {
		t.Fatal("abort decoder must reject commit records")
	}
	if s, err := decodeAbortRecord(encodeAbortRecord(99)); err != nil || s != 99 {
		t.Fatalf("abort round trip: %d %v", s, err)
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	// A record that claims to be a commit batch but is malformed.
	if err := w.Append([]byte{recCommitBatch, 1, 2}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, _, err = RecoverState(Config{Engine: SI}, ledger, nil, 0)
	if err == nil {
		t.Fatal("recovery must reject malformed commit records")
	}
}

// TestRecoverRejectsRetiredCommitRecord: a well-formed single-commit record
// (kind 0x43, retired) fails recovery rather than being skipped as a
// foreign record, which would silently drop a commit.
func TestRecoverRejectsRetiredCommitRecord(t *testing.T) {
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		t.Fatal(err)
	}
	// The retired layout: kind | startTS | commitTS | write set.
	rec := appendRowSet(appendU64(appendU64([]byte{recRetiredCommit}, 7), 12), []RowID{1, 2})
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, err := RecoverState(Config{Engine: SI}, ledger, nil, 0); err == nil {
		t.Fatal("RecoverState accepted a retired single-commit record")
	}
}

// TestRecoverRejectsRetiredRangeRecords: the retired range-migration
// records (kinds 0x4D apply and 0x58 discard) fail recovery rather than
// being skipped as foreign records, which would silently drop or keep a
// migrated range's rows.
func TestRecoverRejectsRetiredRangeRecords(t *testing.T) {
	for _, rec := range [][]byte{
		// The retired apply layout: kind | lo | hi | tmax | count | (row, ts)...
		appendU64(appendU64(binary.BigEndian.AppendUint32(appendU64(appendU64(appendU64([]byte{recRetiredRangeApply}, 0), 100), 5), 1), 7), 5),
		// The retired discard layout: kind | lo | hi.
		appendU64(appendU64([]byte{recRetiredRangeDiscard}, 0), 100),
	} {
		ledger := wal.NewMemLedger()
		w, err := wal.NewWriter(wal.Config{}, ledger)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if _, _, err := RecoverState(Config{Engine: SI}, ledger, nil, 0); err == nil {
			t.Fatalf("RecoverState accepted a retired range record of kind %#x", rec[0])
		}
	}
}

// TestRecoverRejectsRetiredPrepareLayouts: the prepare record and the
// checkpoint whose prepares carried a commit timestamp (kinds 0x50 and
// 0x4B) fail recovery rather than being skipped as foreign records, which
// would silently drop a prepared transaction's row locks.
func TestRecoverRejectsRetiredPrepareLayouts(t *testing.T) {
	for _, rec := range [][]byte{
		// The retired prepare layout: kind | startTS | commitTS | write set | read set.
		appendRowSet(appendRowSet(appendU64(appendU64([]byte{recRetiredPrepare}, 7), 0), []RowID{1}), nil),
		// The retired checkpoint kind on the current checkpoint body.
		append([]byte{recRetiredCheckpoint}, encodeCheckpointRecord(&checkpointState{})[1:]...),
	} {
		ledger := wal.NewMemLedger()
		w, err := wal.NewWriter(wal.Config{}, ledger)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if _, _, err := RecoverState(Config{Engine: SI}, ledger, nil, 0); err == nil {
			t.Fatalf("RecoverState accepted a retired record of kind %#x", rec[0])
		}
	}
}

func TestCommitTableBounded(t *testing.T) {
	so := newOracle(t, Config{Engine: SI, MaxCommits: 5})
	var starts []uint64
	for i := 0; i < 12; i++ {
		ts := mustBegin(t, so)
		res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("k%d", i))})
		if !res.Committed {
			t.Fatal("unexpected abort")
		}
		starts = append(starts, ts)
	}
	// Oldest entries are evicted and now report unknown.
	if st := so.Query(starts[0]); st.Status != StatusUnknown {
		t.Fatalf("evicted commit reports %v, want unknown", st.Status)
	}
	// Recent entries are still exact.
	if st := so.Query(starts[len(starts)-1]); st.Status != StatusCommitted {
		t.Fatalf("recent commit reports %v, want committed", st.Status)
	}
}

// TestRecoverRepeatedWriteRowMatchesLive: a write set that lists a row
// twice, with the row evicted between its two occurrences (MaxRows), leaves
// the row at the commit's timestamp, which equals Tmax. Replay must
// reinstate it exactly as the live path did.
func TestRecoverRepeatedWriteRowMatchesLive(t *testing.T) {
	so, ledger, w := durableOracle(t, WSI, 2)
	ts := mustBegin(t, so)
	if res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: []RowID{1, 2, 3, 1}}); !res.Committed {
		t.Fatal("commit aborted")
	}
	w.Flush()
	rec, _, err := RecoverState(Config{Engine: WSI, MaxRows: 2}, ledger, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rt, lt := rec.Tmax(), so.Tmax(); rt != lt {
		t.Fatalf("recovered Tmax %d, live %d", rt, lt)
	}
	for r := RowID(1); r <= 3; r++ {
		rtc, rok := rec.LastCommitOf(r)
		ltc, lok := so.LastCommitOf(r)
		if rtc != ltc || rok != lok {
			t.Fatalf("lastCommit[%d]: recovered (%d,%v), live (%d,%v)", r, rtc, rok, ltc, lok)
		}
	}
}
