package txn

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/oracle"
)

// recordingArbiter is the metered status oracle that also keeps a copy of
// the last commit request it was sent (the client recycles the request's
// arrays once the oracle has decided).
type recordingArbiter struct {
	countingArbiter
	last oracle.CommitRequest
}

func (a *recordingArbiter) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	a.last = oracle.CommitRequest{
		StartTS:  req.StartTS,
		WriteSet: slices.Clone(req.WriteSet),
		ReadSet:  slices.Clone(req.ReadSet),
	}
	return a.StatusOracle.Commit(req)
}

func (h *healStack) recordingClient(cfg Config) (*Client, *recordingArbiter) {
	h.t.Helper()
	arb := &recordingArbiter{countingArbiter: countingArbiter{StatusOracle: h.so}}
	c, err := NewClient(h.store, arb, cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(c.Close)
	return c, arb
}

// rowIDs hashes keys into a sorted set.
func rowIDs(keys []string) []oracle.RowID {
	ids := make([]oracle.RowID, 0, len(keys))
	for _, k := range keys {
		ids = append(ids, oracle.HashRow(k))
	}
	return compactRows(ids)
}

// TestOwnWritesReadThroughStore: a transaction's own writes — a Put, a Put
// then a Delete, a Delete then a Put, a rewrite — are read back from the
// store by Get, GetMulti, Scan and BucketScan, beside another transaction's
// committed versions of the same keys and a third's pending ones below the
// snapshot. The own version wins every read, and no read asks the oracle
// about any of those rows.
func TestOwnWritesReadThroughStore(t *testing.T) {
	h := newHealStack(t)
	other, _ := h.client(ModeQuery)
	c, arb := h.recordingClient(Config{Bucketer: PrefixBucketer{PrefixLen: 1}})
	keys := []string{"k0", "k1", "k2", "k3"}

	committed := begin(t, other)
	for _, k := range keys {
		put(t, committed, k, "committed")
	}
	commit(t, committed)
	pending := begin(t, other)
	for _, k := range keys {
		put(t, pending, k, "pending")
	}

	tx := begin(t, c)
	put(t, tx, "k0", "own0")
	put(t, tx, "k1", "gone")
	if err := tx.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("k2"); err != nil {
		t.Fatal(err)
	}
	put(t, tx, "k2", "own2")
	put(t, tx, "k3", "first")
	put(t, tx, "k3", "own3")
	want := map[string]string{"k0": "own0", "k2": "own2", "k3": "own3"}

	for _, k := range keys {
		if n := len(h.store.Get(k, tx.StartTS()+1, 0)); n != 3 {
			t.Fatalf("%s holds %d candidates at the writer's snapshot, want 3 (committed, pending, own)", k, n)
		}
	}
	reads := map[string]func(*testing.T, *Txn) map[string]string{
		"BucketScan": func(t *testing.T, tx *Txn) map[string]string {
			rows, err := tx.BucketScan("k0", "k4", 0)
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]string{}
			for _, kv := range rows {
				out[kv.Key] = string(kv.Value)
			}
			return out
		},
	}
	for name, read := range readOps {
		reads[name] = read
	}
	for name, read := range reads {
		if got := read(t, tx); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if n := arb.lookups.Load(); n != 0 {
		t.Fatalf("own reads asked the oracle %d times, want 0", n)
	}
	commit(t, tx)
	if got, want := len(arb.last.WriteSet), len(keys)+2; got != want {
		// One row per key written, its bucket and the whole-table bucket.
		t.Fatalf("write set holds %d rows, want %d", got, want)
	}
	if err := pending.Abort(); err != nil {
		t.Fatal(err)
	}
	after := begin(t, other)
	if got := readOps["GetMulti"](t, after); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after commit: %v, want %v", got, want)
	}
	commit(t, after)
}

// TestBeginAtOwnsNoVersion: a time-travel reader whose timestamp equals a
// writer's start timestamp reads the snapshot below it. The writer's version
// at that timestamp is not the reader's own, pending or committed.
func TestBeginAtOwnsNoVersion(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	old := begin(t, c)
	put(t, old, "k", "old")
	commit(t, old)

	w := begin(t, c)
	put(t, w, "k", "new")
	check := func(state string) {
		t.Helper()
		r := c.BeginAt(w.StartTS())
		if v, ok := get(t, r, "k"); !ok || v != "old" {
			t.Fatalf("%s writer: Get at its start = %q,%v, want old", state, v, ok)
		}
		values, ok, err := r.GetMulti([]string{"k"})
		if err != nil || !ok[0] || string(values[0]) != "old" {
			t.Fatalf("%s writer: GetMulti at its start = %q,%v,%v, want old", state, values, ok, err)
		}
		rows, err := r.Scan("", "", 0)
		if err != nil || len(rows) != 1 || string(rows[0].Value) != "old" {
			t.Fatalf("%s writer: Scan at its start = %v,%v, want old", state, rows, err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	check("pending")
	commit(t, w)
	check("committed")
}

// TestRewritesAndRereadsStayBounded: 1 000 writes of one key leave one store
// version and one write-set entry; 1 000 reads of one key leave one read-set
// entry, and the array that collects them stays small on the way.
func TestRewritesAndRereadsStayBounded(t *testing.T) {
	h := newHealStack(t)
	c, arb := h.recordingClient(Config{})
	tx := begin(t, c)
	tx.sets = new(commitSets) // empty arrays, whatever the pool holds
	for i := 0; i < 1000; i++ {
		put(t, tx, "w", fmt.Sprint(i))
		get(t, tx, "r")
	}
	if n := h.store.VersionCount(); n != 1 {
		t.Fatalf("1000 rewrites left %d versions, want 1", n)
	}
	if n := len(tx.written()); n != 1 {
		t.Fatalf("1000 rewrites recorded %d written keys, want 1", n)
	}
	if n := cap(tx.sets.r); n > 8 {
		t.Fatalf("1000 reads of one key grew the read array to %d", n)
	}
	if v, _ := get(t, tx, "w"); v != "999" {
		t.Fatalf("own read = %q, want the last write", v)
	}
	commit(t, tx)
	if got, want := arb.last.WriteSet, rowIDs([]string{"w"}); !slices.Equal(got, want) {
		t.Fatalf("write set %v, want %v", got, want)
	}
	if got, want := arb.last.ReadSet, rowIDs([]string{"r", "w"}); !slices.Equal(compactRows(got), want) || len(got) != len(want) {
		t.Fatalf("read set %v, want %v", got, want)
	}
}

// TestTxnSetsMatchReference drives seeded random sequences of Get, GetMulti,
// Put, Delete and Scan over a small key space against a map-based model:
// every value returned, and the commit request's write and read sets (as
// sets), must match it. Committed rows, deleted rows and another
// transaction's pending writes sit beside the transaction's own.
func TestTxnSetsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		testTxnSetsMatchReference(t, seed)
	}
}

func testTxnSetsMatchReference(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := newHealStack(t)
	setup, _ := h.client(ModeQuery)
	c, arb := h.recordingClient(Config{})
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(8)) }

	// base is the committed state at the transaction's snapshot; stored
	// holds every key with a version below it (Store.Scan's rows).
	base := map[string]string{}
	stored := map[string]bool{}
	for i := rng.Intn(4); i > 0; i-- {
		tx := begin(t, setup)
		for j := rng.Intn(5); j >= 0; j-- {
			k := key()
			stored[k] = true
			if rng.Intn(4) == 0 {
				if err := tx.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(base, k)
			} else {
				v := fmt.Sprintf("c%d.%d", i, j)
				put(t, tx, k, v)
				base[k] = v
			}
		}
		commit(t, tx)
	}
	pending := begin(t, setup)
	for j := rng.Intn(3); j > 0; j-- {
		k := key()
		stored[k] = true
		put(t, pending, k, "pending")
	}

	tx := begin(t, c)
	own := map[string]*string{} // nil: deleted
	wrote := map[string]bool{}
	read := map[string]bool{}
	want := func(k string) (string, bool) {
		if v, mine := own[k]; mine {
			if v == nil {
				return "", false
			}
			return *v, true
		}
		v, ok := base[k]
		return v, ok
	}
	for op := rng.Intn(60); op >= 0; op-- {
		switch rng.Intn(5) {
		case 0:
			k := key()
			read[k] = true
			v, ok := get(t, tx, k)
			if wv, wok := want(k); v != wv || ok != wok {
				t.Fatalf("seed %d: Get(%s) = %q,%v, model %q,%v", seed, k, v, ok, wv, wok)
			}
		case 1:
			ks := make([]string, rng.Intn(5))
			for i := range ks {
				ks[i] = key()
				read[ks[i]] = true
			}
			values, ok, err := tx.GetMulti(ks)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range ks {
				if wv, wok := want(k); string(values[i]) != wv || ok[i] != wok {
					t.Fatalf("seed %d: GetMulti %s = %q,%v, model %q,%v", seed, k, values[i], ok[i], wv, wok)
				}
			}
		case 2:
			k, v := key(), fmt.Sprintf("own%d", op)
			put(t, tx, k, v)
			own[k], wrote[k], stored[k] = &v, true, true
		case 3:
			k := key()
			if err := tx.Delete(k); err != nil {
				t.Fatal(err)
			}
			own[k], wrote[k], stored[k] = nil, true, true
		case 4:
			lo, hi, limit := key(), key(), rng.Intn(4)
			if lo > hi {
				lo, hi = hi, lo
			}
			rows, err := tx.Scan(lo, hi, limit)
			if err != nil {
				t.Fatal(err)
			}
			var live []string
			for k := range stored {
				if k < lo || k >= hi {
					continue
				}
				read[k] = true
				if _, ok := want(k); ok {
					live = append(live, k)
				}
			}
			sort.Strings(live)
			if limit > 0 && len(live) > limit {
				live = live[:limit]
			}
			got := make([]string, len(rows))
			for i, kv := range rows {
				got[i] = kv.Key
				if wv, _ := want(kv.Key); string(kv.Value) != wv {
					t.Fatalf("seed %d: Scan row %s = %q, model %q", seed, kv.Key, kv.Value, wv)
				}
			}
			if !slices.Equal(got, live) {
				t.Fatalf("seed %d: Scan(%s, %s, %d) = %v, model %v", seed, lo, hi, limit, got, live)
			}
		}
	}
	arb.last = oracle.CommitRequest{}
	if err := tx.Commit(); err != nil {
		t.Fatalf("seed %d: %v", seed, err) // the pending writer never commits
	}
	if len(wrote) == 0 {
		if arb.last.WriteSet != nil || arb.last.ReadSet != nil {
			t.Fatalf("seed %d: read-only transaction sent sets %v / %v", seed, arb.last.WriteSet, arb.last.ReadSet)
		}
		return
	}
	setOf := func(m map[string]bool) []oracle.RowID {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		return rowIDs(ks)
	}
	if got, want := compactRows(arb.last.WriteSet), setOf(wrote); !slices.Equal(got, want) {
		t.Fatalf("seed %d: write set %v, model %v", seed, got, want)
	}
	if got, want := compactRows(arb.last.ReadSet), setOf(read); !slices.Equal(got, want) {
		t.Fatalf("seed %d: read set %v, model %v", seed, got, want)
	}
}
