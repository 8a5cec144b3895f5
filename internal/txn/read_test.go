package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// serialArbiter hides the oracle's QueryBatch so the client falls back to
// serial Query calls — the reference the batched read path must match.
type serialArbiter struct {
	so *oracle.StatusOracle
}

func (s serialArbiter) Begin() (uint64, error) { return s.so.Begin() }
func (s serialArbiter) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	return s.so.Commit(req)
}
func (s serialArbiter) Abort(startTS uint64) error { return s.so.Abort(startTS) }
func (s serialArbiter) Query(startTS uint64) oracle.TxnStatus {
	return s.so.Query(startTS)
}
func (s serialArbiter) Forget(startTS uint64) { s.so.Forget(startTS) }

// seedReadHistory writes a snapshot-visibility obstacle course through a
// client of the given mode: rewritten rows, an H4 overlapping-write pair, a
// pending writer, an aborted-but-still-stored version, and a tombstone.
// It returns the keys readers should exercise.
func seedReadHistory(t *testing.T, store *kvstore.Store, so *oracle.StatusOracle, mode CommitInfoMode) []string {
	t.Helper()
	w, err := NewClient(store, so, Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// k-multi: three committed versions; readers must pick the newest.
	for v := 0; v < 3; v++ {
		tx := begin(t, w)
		put(t, tx, "k-multi", fmt.Sprintf("v%d", v))
		commit(t, tx)
	}
	// k-h4: overlapping writers, earlier start commits later (§4.1).
	t1 := begin(t, w)
	t2 := begin(t, w)
	put(t, t2, "k-h4", "late-start-early-commit")
	put(t, t1, "k-h4", "early-start-late-commit")
	commit(t, t2)
	commit(t, t1)
	// k-pending: a writer that never finishes.
	p := begin(t, w)
	put(t, p, "k-pending", "invisible")
	// k-aborted: an aborted writer whose version is still in the store
	// (simulating a crashed client that never cleaned up).
	ats, err := so.Begin()
	if err != nil {
		t.Fatal(err)
	}
	store.Put("k-aborted", ats, encodeValue([]byte("ghost")))
	if err := so.Abort(ats); err != nil {
		t.Fatal(err)
	}
	// k-gone: committed then deleted.
	d1 := begin(t, w)
	put(t, d1, "k-gone", "was-here")
	commit(t, d1)
	d2 := begin(t, w)
	if err := d2.Delete("k-gone"); err != nil {
		t.Fatal(err)
	}
	commit(t, d2)
	return []string{"k-multi", "k-h4", "k-pending", "k-aborted", "k-gone", "k-missing"}
}

// TestBatchedReadsMatchSerialAllModes is the txn-layer equivalence test:
// Get, GetMulti and Scan through the batched QueryBatch resolution path
// return exactly what a client restricted to serial Query calls returns,
// in both commit-info modes.
func TestBatchedReadsMatchSerialAllModes(t *testing.T) {
	for _, mode := range []CommitInfoMode{ModeQuery, ModeWriteBack} {
		t.Run(mode.String(), func(t *testing.T) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
			if err != nil {
				t.Fatal(err)
			}
			store := kvstore.New(kvstore.Config{})
			keys := seedReadHistory(t, store, so, mode)

			batched, err := NewClient(store, so, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()
			serial, err := NewClient(store, so, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer serial.Close()
			serial.so = serialArbiter{so: so} // force the per-lookup fallback

			// Two passes: the first meets every version unresolved and
			// heals the committed ones, the second reads them stamped. Both
			// must match the serial client, and each other.
			var firstPass string
			for pass := 0; pass < 2; pass++ {
				bt := begin(t, batched)
				st := begin(t, serial)
				var seen []string
				for _, key := range keys {
					bv, bok, err := bt.Get(key)
					if err != nil {
						t.Fatal(err)
					}
					sv, sok, err := st.Get(key)
					if err != nil {
						t.Fatal(err)
					}
					if bok != sok || string(bv) != string(sv) {
						t.Fatalf("pass %d Get(%q): batched %q,%v vs serial %q,%v", pass, key, bv, bok, sv, sok)
					}
					seen = append(seen, fmt.Sprintf("%s=%q,%v", key, bv, bok))
				}
				bvs, boks, err := bt.GetMulti(keys)
				if err != nil {
					t.Fatal(err)
				}
				for i, key := range keys {
					sv, sok, err := st.Get(key)
					if err != nil {
						t.Fatal(err)
					}
					if boks[i] != sok || string(bvs[i]) != string(sv) {
						t.Fatalf("pass %d GetMulti(%q): batched %q,%v vs serial Get %q,%v", pass, key, bvs[i], boks[i], sv, sok)
					}
				}
				brows, err := bt.Scan("", "", 0)
				if err != nil {
					t.Fatal(err)
				}
				srows, err := st.Scan("", "", 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(brows) != len(srows) {
					t.Fatalf("pass %d scan lengths differ: batched %v vs serial %v", pass, brows, srows)
				}
				for i := range brows {
					if brows[i].Key != srows[i].Key || string(brows[i].Value) != string(srows[i].Value) {
						t.Fatalf("pass %d scan row %d: batched %+v vs serial %+v", pass, i, brows[i], srows[i])
					}
					seen = append(seen, fmt.Sprintf("%s=%q", brows[i].Key, brows[i].Value))
				}
				commit(t, bt)
				commit(t, st)
				if pass == 0 {
					firstPass = fmt.Sprint(seen)
				} else if got := fmt.Sprint(seen); got != firstPass {
					t.Fatalf("second pass read %s, first read %s", got, firstPass)
				}
			}
			// Every committed version is stamped by now: reading the rows
			// that hold nothing else costs no lookup in any mode.
			before := so.Stats().Queries
			tx := begin(t, batched)
			if _, _, err := tx.GetMulti([]string{"k-multi", "k-h4", "k-gone", "k-missing"}); err != nil {
				t.Fatal(err)
			}
			commit(t, tx)
			if n := so.Stats().Queries - before; n != 0 {
				t.Fatalf("reading healed rows issued %d lookups", n)
			}
		})
	}
}

// TestGetMultiSemantics pins GetMulti's contract: own writes (including
// tombstones) override, every key joins the read set, and a closed
// transaction is rejected.
func TestGetMultiSemantics(t *testing.T) {
	_, so, c := newStack(t, oracle.WSI, Config{})
	seed := begin(t, c)
	put(t, seed, "a", "1")
	put(t, seed, "b", "2")
	put(t, seed, "c", "3")
	commit(t, seed)

	tx := begin(t, c)
	put(t, tx, "b", "mine")
	if err := tx.Delete("c"); err != nil {
		t.Fatal(err)
	}
	values, ok, err := tx.GetMulti([]string{"a", "b", "c", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if !ok[0] || string(values[0]) != "1" {
		t.Fatalf("a = %q,%v", values[0], ok[0])
	}
	if !ok[1] || string(values[1]) != "mine" {
		t.Fatalf("own write not honored: b = %q,%v", values[1], ok[1])
	}
	if ok[2] {
		t.Fatal("own tombstone visible through GetMulti")
	}
	if ok[3] {
		t.Fatal("missing key reported present")
	}
	// The multi-read must participate in WSI conflict detection.
	w := begin(t, c)
	put(t, w, "a", "concurrent")
	commit(t, w)
	put(t, tx, "z", "v")
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("GetMulti read set ignored by conflict detection: %v", err)
	}
	_ = so

	closed := begin(t, c)
	commit(t, closed)
	if _, _, err := closed.GetMulti([]string{"a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("GetMulti after commit: %v", err)
	}
}

// TestGetMultiResolvesInOneOracleRoundTrip asserts the point of the batched
// read path: a multi-key read costs one QueryBatch, not one lookup round
// trip per version.
func TestGetMultiResolvesInOneOracleRoundTrip(t *testing.T) {
	_, so, c := newStack(t, oracle.WSI, Config{}) // ModeQuery: every version hits the oracle
	seed := begin(t, c)
	for i := 0; i < 8; i++ {
		put(t, seed, fmt.Sprintf("k%d", i), "v")
	}
	commit(t, seed)

	before := so.Stats()
	tx := begin(t, c)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	if _, _, err := tx.GetMulti(keys); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	after := so.Stats()
	if got := after.QueryBatches - before.QueryBatches; got != 1 {
		t.Fatalf("GetMulti issued %d oracle query batches, want 1", got)
	}
	// All eight writers share one seed transaction, so deduplication
	// collapses the batch to a single lookup.
	if got := after.Queries - before.Queries; got != 1 {
		t.Fatalf("GetMulti issued %d lookups, want 1 (deduplicated)", got)
	}
	// That read stamped what it learned: the same read again asks nothing.
	tx = begin(t, c)
	if _, _, err := tx.GetMulti(keys); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	if again := so.Stats(); again.QueryBatches != after.QueryBatches || again.Queries != after.Queries {
		t.Fatalf("second GetMulti issued %d batches, %d lookups; want none",
			again.QueryBatches-after.QueryBatches, again.Queries-after.Queries)
	}
}

// TestGetMultiMatchesGetUnderConcurrentWriters runs readers against writers
// that keep committing to the same rows: within one transaction GetMulti
// must answer exactly what a loop of Get answers — the snapshot does not move
// — while the pooled read scratch is shared by every reader. Run with -race.
func TestGetMultiMatchesGetUnderConcurrentWriters(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	const rows = 24
	keys := make([]string, rows)
	seed := begin(t, c)
	for i := range keys {
		keys[i] = fmt.Sprintf("row%02d", i)
		put(t, seed, keys[i], "v0")
	}
	commit(t, seed)

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := c.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 3; i++ {
					k := keys[rng.Intn(rows)]
					if rng.Intn(8) == 0 {
						err = tx.Delete(k)
					} else {
						err = tx.Put(k, []byte(fmt.Sprintf("w%d-%d", w, n)))
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				if n%5 == 4 {
					err = tx.Abort()
				} else if err = tx.Commit(); errors.Is(err, ErrConflict) {
					err = nil
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for n := 0; n < 150; n++ {
				tx, err := c.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				read := make([]string, 1+rng.Intn(rows))
				for i := range read {
					read[i] = keys[rng.Intn(rows)] // duplicates included
				}
				if rng.Intn(3) == 0 {
					read = append(read, "never-written")
				}
				values, ok, err := tx.GetMulti(read)
				if err != nil {
					t.Error(err)
					return
				}
				for i, k := range read {
					v, found, err := tx.Get(k)
					if err != nil || found != ok[i] || string(v) != string(values[i]) {
						t.Errorf("reader %d txn %d key %q: GetMulti %q,%v but Get %q,%v (%v)",
							r, n, k, values[i], ok[i], v, found, err)
						return
					}
				}
				if err := tx.Commit(); err != nil { // read-only: never conflicts
					t.Error(err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
