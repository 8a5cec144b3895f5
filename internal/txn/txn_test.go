package txn

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// newStack wires a store + oracle + client for one test.
func newStack(t *testing.T, engine oracle.Engine, cfg Config) (*kvstore.Store, *oracle.StatusOracle, *Client) {
	t.Helper()
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: engine, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.New(kvstore.Config{})
	c, err := NewClient(store, so, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return store, so, c
}

func begin(t *testing.T, c *Client) *Txn {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func put(t *testing.T, tx *Txn, k, v string) {
	t.Helper()
	if err := tx.Put(k, []byte(v)); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, tx *Txn, k string) (string, bool) {
	t.Helper()
	v, ok, err := tx.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

func commit(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicPutGetCommit(t *testing.T) {
	for _, mode := range []CommitInfoMode{ModeQuery, ModeWriteBack} {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, c := newStack(t, oracle.WSI, Config{Mode: mode})
			t1 := begin(t, c)
			put(t, t1, "k", "v1")
			commit(t, t1)

			t2 := begin(t, c)
			v, ok := get(t, t2, "k")
			if !ok || v != "v1" {
				t.Fatalf("get = %q,%v want v1,true", v, ok)
			}
			commit(t, t2)
		})
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	put(t, tx, "k", "mine")
	if v, ok := get(t, tx, "k"); !ok || v != "mine" {
		t.Fatalf("own write invisible: %q,%v", v, ok)
	}
	if err := tx.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, tx, "k"); ok {
		t.Fatal("own delete invisible")
	}
	commit(t, tx)
}

func TestSnapshotInvisibleToConcurrentReader(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	reader := begin(t, c) // snapshot taken now

	writer := begin(t, c)
	put(t, writer, "k", "late")
	commit(t, writer)

	if _, ok := get(t, reader, "k"); ok {
		t.Fatal("reader saw a commit after its snapshot")
	}
	// reader is read-only: never aborts even though k changed.
	commit(t, reader)
}

func TestUncommittedInvisible(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	writer := begin(t, c)
	put(t, writer, "k", "tentative")

	reader := begin(t, c)
	if _, ok := get(t, reader, "k"); ok {
		t.Fatal("reader saw an uncommitted write")
	}
	commit(t, reader)
	// Writer's snapshot predates nothing conflicting; commits fine.
	commit(t, writer)
}

func TestAbortedInvisibleAndCleaned(t *testing.T) {
	store, _, c := newStack(t, oracle.WSI, Config{})
	writer := begin(t, c)
	put(t, writer, "k", "doomed")
	if err := writer.Abort(); err != nil {
		t.Fatal(err)
	}
	reader := begin(t, c)
	if _, ok := get(t, reader, "k"); ok {
		t.Fatal("aborted write visible")
	}
	// The tentative version must be physically gone.
	if vs := store.Get("k", ^uint64(0), 0); len(vs) != 0 {
		t.Fatalf("abort left %d versions behind", len(vs))
	}
}

func TestWSIConflictAbortAndCleanup(t *testing.T) {
	store, _, c := newStack(t, oracle.WSI, Config{})
	// Seed.
	seed := begin(t, c)
	put(t, seed, "x", "0")
	commit(t, seed)

	t1 := begin(t, c)
	get(t, t1, "x") // read set: x

	t2 := begin(t, c)
	put(t, t2, "x", "2")
	commit(t, t2) // commits during t1's lifetime

	put(t, t1, "y", "1")
	err := t1.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	// t1's tentative write of y must be cleaned up.
	if vs := store.Get("y", ^uint64(0), 0); len(vs) != 0 {
		t.Fatal("conflict abort left tentative writes")
	}
}

func TestSIAllowsWriteSkew(t *testing.T) {
	// The §3.1 write-skew: SI commits both transactions.
	_, _, c := newStack(t, oracle.SI, Config{})
	seed := begin(t, c)
	put(t, seed, "x", "1")
	put(t, seed, "y", "1")
	commit(t, seed)

	t1 := begin(t, c)
	t2 := begin(t, c)
	get(t, t1, "x")
	get(t, t1, "y")
	get(t, t2, "x")
	get(t, t2, "y")
	put(t, t1, "x", "0")
	put(t, t2, "y", "0")
	commit(t, t1)
	commit(t, t2) // SI: disjoint write sets, both commit — anomaly!

	check := begin(t, c)
	x, _ := get(t, check, "x")
	y, _ := get(t, check, "y")
	if x != "0" || y != "0" {
		t.Fatalf("write skew outcome x=%s y=%s, want 0/0 (constraint violated)", x, y)
	}
}

func TestWSIPreventsWriteSkew(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	seed := begin(t, c)
	put(t, seed, "x", "1")
	put(t, seed, "y", "1")
	commit(t, seed)

	t1 := begin(t, c)
	t2 := begin(t, c)
	get(t, t1, "x")
	get(t, t1, "y")
	get(t, t2, "x")
	get(t, t2, "y")
	put(t, t1, "x", "0")
	put(t, t2, "y", "0")
	commit(t, t1)
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("WSI must abort the second write-skew transaction, got %v", err)
	}
}

func TestTombstoneVisibility(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	t1 := begin(t, c)
	put(t, t1, "k", "v")
	commit(t, t1)
	t2 := begin(t, c)
	if err := t2.Delete("k"); err != nil {
		t.Fatal(err)
	}
	commit(t, t2)

	t3 := begin(t, c)
	if _, ok := get(t, t3, "k"); ok {
		t.Fatal("deleted key visible after delete commit")
	}
	commit(t, t3)
}

func TestEmptyValueIsNotTombstone(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	t1 := begin(t, c)
	put(t, t1, "k", "")
	commit(t, t1)
	t2 := begin(t, c)
	v, ok := get(t, t2, "k")
	if !ok || v != "" {
		t.Fatalf("empty value lost: %q,%v", v, ok)
	}
	commit(t, t2)
}

func TestClosedTxnRejectsEverything(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	commit(t, tx)
	if err := tx.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after commit: %v", err)
	}
	if _, _, err := tx.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Abort after commit: %v", err)
	}
	if _, err := tx.Scan("", "", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after commit: %v", err)
	}
}

func TestReadOnlyNeverConflicts(t *testing.T) {
	_, so, c := newStack(t, oracle.WSI, Config{})
	reader := begin(t, c)
	get(t, reader, "a")
	get(t, reader, "b")
	// Concurrent writers hammer both keys.
	for i := 0; i < 5; i++ {
		w := begin(t, c)
		put(t, w, "a", fmt.Sprint(i))
		put(t, w, "b", fmt.Sprint(i))
		commit(t, w)
	}
	commit(t, reader) // must succeed
	if s := so.Stats(); s.ReadOnlyCommits != 1 {
		t.Fatalf("read-only commits = %d, want 1", s.ReadOnlyCommits)
	}
}

func TestScanSnapshotAndOwnWrites(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	seed := begin(t, c)
	put(t, seed, "a", "1")
	put(t, seed, "c", "3")
	commit(t, seed)

	tx := begin(t, c)
	put(t, tx, "b", "2") // own write inside range
	if err := tx.Delete("c"); err != nil {
		t.Fatal(err)
	}
	// A concurrent commit must stay invisible.
	w := begin(t, c)
	put(t, w, "d", "4")
	commit(t, w)

	rows, err := tx.Scan("a", "z", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "1", "b": "2"}
	if len(rows) != len(want) {
		t.Fatalf("scan = %v", rows)
	}
	for _, kv := range rows {
		if want[kv.Key] != string(kv.Value) {
			t.Fatalf("row %q = %q", kv.Key, kv.Value)
		}
	}
	commit(t, tx)
}

func TestScanLimit(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	seed := begin(t, c)
	for i := 0; i < 10; i++ {
		put(t, seed, fmt.Sprintf("k%02d", i), "v")
	}
	commit(t, seed)
	tx := begin(t, c)
	rows, err := tx.Scan("", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Key != "k00" {
		t.Fatalf("limited scan = %v", rows)
	}
	commit(t, tx)
}

func TestScanJoinsReadSet(t *testing.T) {
	// A row observed by Scan must participate in WSI conflict detection.
	_, _, c := newStack(t, oracle.WSI, Config{})
	seed := begin(t, c)
	put(t, seed, "s1", "v")
	commit(t, seed)

	tx := begin(t, c)
	if _, err := tx.Scan("s", "t", 0); err != nil {
		t.Fatal(err)
	}
	// Concurrent writer modifies the scanned row.
	w := begin(t, c)
	put(t, w, "s1", "v2")
	commit(t, w)

	put(t, tx, "other", "x")
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("scan read set ignored: %v", err)
	}
}

func TestOlderVersionStillVisibleUnderPendingNewer(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	t1 := begin(t, c)
	put(t, t1, "k", "committed")
	commit(t, t1)

	pending := begin(t, c)
	put(t, pending, "k", "tentative")

	reader := begin(t, c)
	v, ok := get(t, reader, "k")
	if !ok || v != "committed" {
		t.Fatalf("reader should skip the pending version: %q,%v", v, ok)
	}
	commit(t, reader)
	commit(t, pending)
}

// TestH4VersionSelectionByCommitOrder pins the §4.1 subtlety that WSI
// introduces: two overlapping transactions may both write the same row
// (History 4), and the earlier-starting transaction may commit later. The
// current version is the one with the larger COMMIT timestamp, even though
// its store tag (start timestamp) is older; a reader that picked versions
// by start-timestamp order would resurrect the overwritten value.
func TestH4VersionSelectionByCommitOrder(t *testing.T) {
	for _, mode := range []CommitInfoMode{ModeQuery, ModeWriteBack} {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, c := newStack(t, oracle.WSI, Config{Mode: mode})
			// t1 starts first (older start timestamp) ...
			t1 := begin(t, c)
			get(t, t1, "x")
			// ... t2 starts later and blind-writes x ...
			t2 := begin(t, c)
			put(t, t2, "x", "second-start")
			// H4 order: w2[x] w1[x] c1 c2 — but with WSI both commit
			// in either order; commit t2 first, then t1.
			put(t, t1, "x", "first-start")
			commit(t, t1) // Tc(t1) < Tc(t2)
			commit(t, t2) // t2 wins: larger commit timestamp

			r := begin(t, c)
			v, ok := get(t, r, "x")
			if !ok || v != "second-start" {
				t.Fatalf("snapshot read = %q,%v; want the later committer's value", v, ok)
			}
			commit(t, r)
		})
	}
}

// TestScanH4VersionSelection mirrors the H4 rule on the scan path.
func TestScanH4VersionSelection(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	t1 := begin(t, c)
	t2 := begin(t, c)
	put(t, t2, "k", "late-start-early-commit")
	put(t, t1, "k", "early-start-late-commit")
	commit(t, t2)
	commit(t, t1) // t1 commits last: its value is current

	r := begin(t, c)
	rows, err := r.Scan("", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].Value) != "early-start-late-commit" {
		t.Fatalf("scan = %v; want the later committer's value", rows)
	}
	commit(t, r)
}

func TestModeWriteBackResolvesFromShadow(t *testing.T) {
	store, so, c := newStack(t, oracle.WSI, Config{Mode: ModeWriteBack})
	tx := begin(t, c)
	put(t, tx, "k", "v")
	commit(t, tx)
	// The committer stamped its own write at ack.
	if v, err := store.GetVersion("k", tx.StartTS()); err != nil || v.CommitTS != tx.CommitTS() {
		t.Fatalf("commit did not write back its commit timestamp: %+v, %v", v, err)
	}
	// Even if the oracle evicted the commit (simulate with a bounded
	// table), the shadow resolves the read.
	_ = so
	r := begin(t, c)
	if v, ok := get(t, r, "k"); !ok || v != "v" {
		t.Fatalf("write-back read failed: %q,%v", v, ok)
	}
	commit(t, r)
}

func TestModeWriteBackUnknownOldTreatedAborted(t *testing.T) {
	// Bounded commit table: an evicted transaction with no shadow cell
	// (writer crashed before write-back) must be invisible.
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock, MaxCommits: 2})
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.New(kvstore.Config{})
	c, err := NewClient(store, so, Config{Mode: ModeWriteBack})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Simulate a writer that committed at the oracle but crashed before
	// write-back: commit via the oracle directly, put only the data.
	ts, _ := so.Begin()
	store.Put("ghost", ts, []byte{0x01, 'g'})
	if res, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.HashRow("ghost")}}); err != nil || !res.Committed {
		t.Fatalf("setup commit: %v %v", res, err)
	}
	// Push the commit out of the bounded table.
	for i := 0; i < 5; i++ {
		ts2, _ := so.Begin()
		if _, err := so.Commit(oracle.CommitRequest{StartTS: ts2, WriteSet: []oracle.RowID{oracle.HashRow(fmt.Sprintf("f%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	r := begin(t, c)
	if _, ok := get(t, r, "ghost"); ok {
		t.Fatal("unknown-old version with no shadow must be invisible")
	}
	commit(t, r)
}

func TestPutValueCopied(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	buf := []byte("orig")
	if err := tx.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	if v, _ := get(t, tx, "k"); v != "orig" {
		t.Fatalf("Put aliased caller buffer: %q", v)
	}
	commit(t, tx)
}

func TestCommitTSExposed(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	put(t, tx, "k", "v")
	commit(t, tx)
	if !tx.Committed() || tx.CommitTS() <= tx.StartTS() {
		t.Fatalf("committed=%v commitTS=%d startTS=%d", tx.Committed(), tx.CommitTS(), tx.StartTS())
	}
}
