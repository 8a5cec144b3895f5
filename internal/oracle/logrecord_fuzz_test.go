package oracle

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/tso"
	"repro/internal/wal"
)

// Records whose counts claim far more elements than the record holds. The
// commit batch claims 2^20-1 entries (40 MiB of commitEntry), the
// checkpoint 2^20-1 commit pairs (16 MiB), in 5 and 21 bytes.
var (
	hugeCommitBatchRecord = []byte{recCommitBatch, 0x00, 0x0f, 0xff, 0xff}
	hugeCheckpointRecord  = append(append([]byte{recCheckpoint}, make([]byte, 16)...), 0x00, 0x0f, 0xff, 0xff)
)

// allocated returns the bytes fn allocates, the least of three runs, so an
// allocation by some other goroutine does not count against fn.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLogDecodersBoundClaimedCount: a count read from a log record sizes no
// allocation beyond the bytes the record holds. Without the caps each of
// these truncated records reserves tens of megabytes before it is rejected.
func TestLogDecodersBoundClaimedCount(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"commit batch", func() error { _, err := decodeCommitBatchRecord(hugeCommitBatchRecord); return err }},
		{"checkpoint", func() error { _, err := decodeCheckpointRecord(hugeCheckpointRecord); return err }},
	} {
		var err error
		if n := allocated(func() { err = tc.decode() }); n >= 1<<20 {
			t.Errorf("%s: decoding a truncated record allocated %d bytes", tc.name, n)
		}
		if err == nil {
			t.Errorf("%s: truncated record decoded without error", tc.name)
		}
	}
}

// logPrefix returns the batches of a valid log: batched commits, an abort, a
// checkpoint, a commit after it, an in-doubt prepare and a decided one.
func logPrefix(tb testing.TB, cfg Config) [][]byte {
	tb.Helper()
	ledger := wal.NewMemLedger()
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.WAL, cfg.TSO = w, tso.New(100, w)
	so, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	commit := func(rows ...RowID) {
		ts, err := so.Begin()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := so.CommitBatch([]CommitRequest{{StartTS: ts, WriteSet: rows, ReadSet: rows}}); err != nil {
			tb.Fatal(err)
		}
	}
	commit(1, 2)
	commit(2, 3)
	ts, _ := so.Begin()
	if err := so.Abort(ts); err != nil {
		tb.Fatal(err)
	}
	if err := so.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	commit(3)
	start, _ := so.Begin()
	decided, _ := so.Begin()
	tc, _ := so.Begin()
	if _, err := so.PrepareBatch([]PrepareRequest{
		{StartTS: start, CommitTS: tc, WriteSet: []RowID{4}},
		{StartTS: decided, CommitTS: tc + 1, WriteSet: []RowID{5}, ReadSet: []RowID{1}},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := so.DecideBatch([]Decision{{StartTS: decided, CommitTS: tc + 1, Commit: true}}); err != nil {
		tb.Fatal(err)
	}
	w.Close()
	n, _ := ledger.NumBatches()
	batches := make([][]byte, n)
	for i := range batches {
		batches[i], _ = ledger.ReadBatch(i)
	}
	return batches
}

// recoverLog recovers an oracle from the prefix batches followed by one
// batch holding entries.
func recoverLog(tb testing.TB, cfg Config, prefix [][]byte, entries ...[]byte) (*StatusOracle, error) {
	tb.Helper()
	ledger := wal.NewMemLedger()
	for _, b := range prefix {
		ledger.AppendBatch(b)
	}
	if len(entries) > 0 {
		w, err := wal.NewWriter(wal.Config{}, ledger)
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.AppendAll(entries...); err != nil {
			tb.Fatal(err)
		}
		w.Close()
	}
	so, _, err := RecoverState(cfg, ledger, nil, 0)
	return so, err
}

// stateOf renders the oracle's recoverable state as its checkpoint record.
func stateOf(so *StatusOracle) []byte {
	so.ckptMu.Lock()
	defer so.ckptMu.Unlock()
	return encodeCheckpointRecord(so.captureCheckpoint(0))
}

// FuzzLogRecord appends one fuzzed entry to a valid log and recovers it.
// Recovery must never panic, and must agree with applying the entry to the
// prefix's state: where that fails, recovery fails; where it succeeds,
// recovery yields the same state. An entry the oracle does not own (a
// timestamp reservation, an unknown kind) leaves the prefix's state as it
// was.
func FuzzLogRecord(f *testing.F) {
	cfg := Config{Engine: WSI, MaxRows: 4, MaxCommits: 8, Shards: 2}
	prefix := logPrefix(f, cfg)
	f.Add(hugeCommitBatchRecord)
	f.Add(hugeCheckpointRecord)
	f.Add(appendCommitBatchRecord(nil, []CommitRequest{{StartTS: 900, WriteSet: []RowID{1, 9}}}, []int{0}, 901))
	f.Add(appendRowSet(appendU64(appendU64([]byte{recRetiredCommit}, 910), 911), []RowID{2}))
	f.Add(encodeAbortRecord(920))
	f.Add(encodePrepareRecord(&PrepareRequest{StartTS: 930, CommitTS: 931, WriteSet: []RowID{3}, ReadSet: []RowID{4}}))
	f.Add(encodeDecideRecord(Decision{StartTS: 940, CommitTS: 941, Commit: true}, []RowID{6}))
	// Where the range-migration records stood (their bytes are corpus files
	// now): the retired kinds alone, which replay must reject too.
	f.Add([]byte{recRetiredRangeApply})
	f.Add([]byte{recRetiredRangeDiscard})
	f.Add([]byte{recCheckpoint})
	f.Fuzz(func(t *testing.T, entry []byte) {
		ref, err := recoverLog(t, cfg, prefix)
		if err != nil {
			t.Fatalf("recovering the valid prefix: %v", err)
		}
		prefixState := stateOf(ref)
		applied, applyErr := ref.ApplyLogEntry(entry)
		got, err := recoverLog(t, cfg, prefix, entry)
		switch {
		case applyErr != nil:
			if err == nil {
				t.Fatalf("entry %x: applying it fails (%v), recovering it does not", entry, applyErr)
			}
		case err != nil:
			t.Fatalf("entry %x applies cleanly, recovery fails: %v", entry, err)
		case !bytes.Equal(stateOf(got), stateOf(ref)):
			t.Fatalf("entry %x: recovered state differs from the prefix's with the entry applied", entry)
		case !applied && !bytes.Equal(stateOf(got), prefixState):
			t.Fatalf("entry %x is not the oracle's, yet recovery changed the prefix's state", entry)
		}
	})
}
