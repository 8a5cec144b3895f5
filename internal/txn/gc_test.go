package txn

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/oracle"
)

// forEachMode runs a collector test in both commit-info modes: the
// collector's verdicts come from stamps first and the mode's source second,
// and a write-back collector used to deadlock on its own region lock.
func forEachMode(t *testing.T, test func(t *testing.T, mode CommitInfoMode)) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) { test(t, mode) })
	}
}

func TestGCReclaimsOldVersions(t *testing.T) { forEachMode(t, testGCReclaimsOldVersions) }

func testGCReclaimsOldVersions(t *testing.T, mode CommitInfoMode) {
	store, _, c := newStack(t, oracle.WSI, Config{Mode: mode})
	// Five committed rewrites of the same key.
	for i := 0; i < 5; i++ {
		tx := begin(t, c)
		put(t, tx, "k", fmt.Sprintf("v%d", i))
		commit(t, tx)
	}
	if store.VersionCount() != 5 {
		t.Fatalf("setup: %d versions", store.VersionCount())
	}
	n, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("reclaimed %d versions, want 4", n)
	}
	// The surviving version must still serve reads correctly.
	r := begin(t, c)
	v, ok := get(t, r, "k")
	if !ok || v != "v4" {
		t.Fatalf("after GC read = %q,%v", v, ok)
	}
	commit(t, r)
}

func TestGCKeepsVersionsVisibleToActiveTxn(t *testing.T) {
	forEachMode(t, testGCKeepsVersionsVisibleToActiveTxn)
}

func testGCKeepsVersionsVisibleToActiveTxn(t *testing.T, mode CommitInfoMode) {
	store, _, c := newStack(t, oracle.WSI, Config{Mode: mode})
	w1 := begin(t, c)
	put(t, w1, "k", "old")
	commit(t, w1)

	// A long-running reader pins the old snapshot.
	reader := begin(t, c)

	w2 := begin(t, c)
	put(t, w2, "k", "new")
	commit(t, w2)

	if n, err := c.GC(); err != nil {
		t.Fatal(err)
	} else if n != 0 {
		t.Fatalf("GC reclaimed %d versions pinned by an active reader", n)
	}
	if v, ok := get(t, reader, "k"); !ok || v != "old" {
		t.Fatalf("pinned snapshot read = %q,%v", v, ok)
	}
	commit(t, reader)

	// With the reader gone, the old version is reclaimable.
	if n, err := c.GC(); err != nil {
		t.Fatal(err)
	} else if n != 1 {
		t.Fatalf("post-reader GC reclaimed %d, want 1", n)
	}
	if store.VersionCount() != 1 {
		t.Fatalf("store holds %d versions", store.VersionCount())
	}
}

func TestGCReclaimsAbortedGarbageLeftInStore(t *testing.T) {
	forEachMode(t, testGCReclaimsAbortedGarbageLeftInStore)
}

func testGCReclaimsAbortedGarbageLeftInStore(t *testing.T, mode CommitInfoMode) {
	// Simulate a crashed client: its tentative version sits in the store
	// and the oracle recorded the abort, but cleanup never ran.
	store, so, c := newStack(t, oracle.WSI, Config{Mode: mode})
	ts, _ := so.Begin()
	store.Put("k", ts, []byte{0x01, 'z'})
	if err := so.Abort(ts); err != nil {
		t.Fatal(err)
	}
	if n, err := c.GC(); err != nil {
		t.Fatal(err)
	} else if n != 1 {
		t.Fatalf("aborted garbage not reclaimed: %d", n)
	}
}

func TestGCKeepsPendingVersions(t *testing.T) { forEachMode(t, testGCKeepsPendingVersions) }

func testGCKeepsPendingVersions(t *testing.T, mode CommitInfoMode) {
	_, _, c := newStack(t, oracle.WSI, Config{Mode: mode})
	w := begin(t, c)
	put(t, w, "k", "tentative")
	// w still pending: GC from another client view must keep it.
	if n := c.GCAt(w.StartTS() + 100); n != 0 {
		t.Fatalf("GC reclaimed a pending version")
	}
	commit(t, w)
}

// TestGCRespectsCommitOrderSelection pins GC against the H4 subtlety: the
// version with the older start timestamp but newer commit timestamp is the
// retained one.
func TestGCRespectsCommitOrderSelection(t *testing.T) {
	forEachMode(t, testGCRespectsCommitOrderSelection)
}

func testGCRespectsCommitOrderSelection(t *testing.T, mode CommitInfoMode) {
	store, _, c := newStack(t, oracle.WSI, Config{Mode: mode})
	t1 := begin(t, c) // older start
	t2 := begin(t, c)
	put(t, t2, "k", "loser") // newer start, earlier commit
	put(t, t1, "k", "winner")
	commit(t, t2)
	commit(t, t1) // larger commit timestamp

	n, err := c.GC()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reclaimed %d, want 1 (the earlier-committed version)", n)
	}
	if store.VersionCount() != 1 {
		t.Fatalf("store holds %d versions", store.VersionCount())
	}
	r := begin(t, c)
	if v, ok := get(t, r, "k"); !ok || v != "winner" {
		t.Fatalf("GC pruned the wrong version: read %q,%v", v, ok)
	}
	commit(t, r)
}

func TestBeginAtTimeTravel(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	t1 := begin(t, c)
	put(t, t1, "k", "v1")
	commit(t, t1)
	mid := t1.CommitTS() + 1

	t2 := begin(t, c)
	put(t, t2, "k", "v2")
	commit(t, t2)

	// Snapshot between the two commits sees v1.
	old := c.BeginAt(mid)
	if v, ok := get(t, old, "k"); !ok || v != "v1" {
		t.Fatalf("time travel read = %q,%v want v1", v, ok)
	}
	// Writes are rejected.
	if err := old.Put("k", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on time-travel txn: %v", err)
	}
	if err := old.Delete("k"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete on time-travel txn: %v", err)
	}
	if err := old.Commit(); err != nil {
		t.Fatal(err)
	}
	// Snapshot before everything sees nothing.
	ancient := c.BeginAt(1)
	if _, ok := get(t, ancient, "k"); ok {
		t.Fatal("ancient snapshot saw a later commit")
	}
	if err := ancient.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestActiveSetTracksLifecycle(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	if _, ok := c.active.min(); ok {
		t.Fatal("fresh client has active transactions")
	}
	tx := begin(t, c)
	if low, ok := c.active.min(); !ok || low != tx.StartTS() {
		t.Fatalf("active min = %d,%v", low, ok)
	}
	commit(t, tx)
	if _, ok := c.active.min(); ok {
		t.Fatal("committed transaction still active")
	}
	tx2 := begin(t, c)
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.active.min(); ok {
		t.Fatal("aborted transaction still active")
	}
}
