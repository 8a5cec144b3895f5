package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// countingArbiter is the status oracle with a meter on the one question this
// file is about: how many writers' fates a client asked for, singly or in
// batches.
type countingArbiter struct {
	*oracle.StatusOracle
	lookups atomic.Int64
}

func (a *countingArbiter) Query(startTS uint64) oracle.TxnStatus {
	a.lookups.Add(1)
	return a.StatusOracle.Query(startTS)
}

func (a *countingArbiter) QueryBatch(startTSs []uint64) []oracle.TxnStatus {
	a.lookups.Add(int64(len(startTSs)))
	return a.StatusOracle.QueryBatch(startTSs)
}

var allModes = []CommitInfoMode{ModeQuery, ModeWriteBack}

// healStack is one store and oracle with any number of metered clients.
type healStack struct {
	t     *testing.T
	store *kvstore.Store
	so    *oracle.StatusOracle
}

func newHealStack(t *testing.T) *healStack {
	t.Helper()
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return &healStack{t: t, store: kvstore.New(kvstore.Config{Servers: 2, SplitKeys: []string{"k2"}}), so: so}
}

func (h *healStack) client(mode CommitInfoMode) (*Client, *countingArbiter) {
	h.t.Helper()
	arb := &countingArbiter{StatusOracle: h.so}
	c, err := NewClient(h.store, arb, Config{Mode: mode})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(c.Close)
	return c, arb
}

// stampOf reads the commit timestamp stamped on the version of key written
// at ts (0 when unstamped or absent).
func (h *healStack) stampOf(key string, ts uint64) uint64 {
	v, _ := h.store.GetVersion(key, ts)
	return v.CommitTS
}

// readOps are the three read shapes; each returns key → value for the rows
// it found among k0..k3.
var readOps = map[string]func(*testing.T, *Txn) map[string]string{
	"Get": func(t *testing.T, tx *Txn) map[string]string {
		out := map[string]string{}
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("k%d", i)
			if v, ok := get(t, tx, k); ok {
				out[k] = v
			}
		}
		return out
	},
	"GetMulti": func(t *testing.T, tx *Txn) map[string]string {
		keys := []string{"k0", "k1", "k2", "k3"}
		values, ok, err := tx.GetMulti(keys)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for i, k := range keys {
			if ok[i] {
				out[k] = string(values[i])
			}
		}
		return out
	},
	"Scan": func(t *testing.T, tx *Txn) map[string]string {
		rows, err := tx.Scan("k0", "k4", 0)
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

// TestHealSecondReaderAsksNothing: whatever the mode and whatever the read
// shape, once one reader has resolved a committed version a reader on a
// different client — sharing only the store — asks the oracle nothing about
// it and reads the same values. The writer is a ModeQuery client (no
// committer stamp), so it is the first reader that heals.
func TestHealSecondReaderAsksNothing(t *testing.T) {
	for _, mode := range allModes {
		for name, op := range readOps {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				h := newHealStack(t)
				w, _ := h.client(ModeQuery)
				for round := 0; round < 2; round++ { // two versions per row
					tx := begin(t, w)
					for i := 0; i < 3; i++ {
						put(t, tx, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d.%d", i, round))
					}
					commit(t, tx)
				}
				first, _ := h.client(mode)
				r1 := begin(t, first)
				want := op(t, r1)
				commit(t, r1)
				if len(want) != 3 || want["k1"] != "v1.1" {
					t.Fatalf("first reader saw %v", want)
				}

				second, arb := h.client(mode)
				r2 := begin(t, second)
				got := op(t, r2)
				commit(t, r2)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("second reader saw %v, first saw %v", got, want)
				}
				if n := arb.lookups.Load(); n != 0 {
					t.Fatalf("second reader issued %d status lookups for versions already resolved", n)
				}
			})
		}
	}
}

// TestHealStampsOnlyFacts: a version read while its writer is pending is
// invisible and stays unstamped; the first read after the commit sees it and
// stamps it; the read after that asks nothing. An aborted writer's leftover
// version (its client crashed before cleanup) is never stamped and never
// becomes visible, however often it is read — and neither is write-back
// mode's inference that an evicted, unstamped writer must have aborted.
func TestHealStampsOnlyFacts(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHealStack(t)
			w, _ := h.client(ModeQuery)
			c, arb := h.client(mode)

			writer := begin(t, w)
			put(t, writer, "k0", "tentative")
			r := begin(t, c)
			if _, ok := get(t, r, "k0"); ok {
				t.Fatal("pending write visible")
			}
			commit(t, r)
			if tc := h.stampOf("k0", writer.StartTS()); tc != 0 {
				t.Fatalf("pending version stamped %d", tc)
			}
			// Rewriting (key, ts) before commit: still one version, still
			// unstamped, and the committed value is the rewrite.
			put(t, writer, "k0", "final")
			commit(t, writer)

			r = begin(t, c)
			if v, ok := get(t, r, "k0"); !ok || v != "final" {
				t.Fatalf("committed write read %q,%v", v, ok)
			}
			commit(t, r)
			if tc := h.stampOf("k0", writer.StartTS()); tc != writer.CommitTS() {
				t.Fatalf("first read after commit stamped %d, want %d", tc, writer.CommitTS())
			}
			before := arb.lookups.Load()
			r = begin(t, c)
			if v, ok := get(t, r, "k0"); !ok || v != "final" {
				t.Fatalf("stamped version read %q,%v", v, ok)
			}
			commit(t, r)
			if n := arb.lookups.Load() - before; n != 0 {
				t.Fatalf("read of a stamped version issued %d lookups", n)
			}

			ghost, err := h.so.Begin()
			if err != nil {
				t.Fatal(err)
			}
			h.store.Put("k3", ghost, encodeValue([]byte("ghost")))
			if err := h.so.Abort(ghost); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				r = begin(t, c)
				if _, ok := get(t, r, "k3"); ok {
					t.Fatal("aborted write visible")
				}
				commit(t, r)
				if tc := h.stampOf("k3", ghost); tc != 0 {
					t.Fatalf("aborted version stamped %d", tc)
				}
			}
		})
	}

	t.Run("write-back inference", func(t *testing.T) {
		so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil), MaxCommits: 2})
		if err != nil {
			t.Fatal(err)
		}
		h := &healStack{t: t, store: kvstore.New(kvstore.Config{}), so: so}
		c, _ := h.client(ModeWriteBack)
		// Committed at the oracle, data in the store, no write-back, and
		// the commit evicted from the bounded table: unknown, read as
		// aborted — a rule, not an answer, so nothing is stamped.
		ts, _ := so.Begin()
		h.store.Put("k0", ts, encodeValue([]byte("lost")))
		if res, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.HashRow("k0")}}); err != nil || !res.Committed {
			t.Fatalf("setup commit: %v %v", res, err)
		}
		for i := 0; i < 5; i++ {
			ts2, _ := so.Begin()
			if _, err := so.Commit(oracle.CommitRequest{StartTS: ts2, WriteSet: []oracle.RowID{oracle.HashRow(fmt.Sprint("f", i))}}); err != nil {
				t.Fatal(err)
			}
		}
		r := begin(t, c)
		if _, ok := get(t, r, "k0"); ok {
			t.Fatal("evicted, unstamped version visible in write-back mode")
		}
		commit(t, r)
		if tc := h.stampOf("k0", ts); tc != 0 {
			t.Fatalf("inferred-aborted version stamped %d", tc)
		}
	})
}

// TestHealHistory4ThenGC: two overlapping blind writers of one row, the
// earlier start committing later. Readers pick the later *commit*, which
// takes walking the whole chain; both versions end up stamped; the collector
// then keeps exactly the winner, asking the oracle nothing.
func TestHealHistory4ThenGC(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHealStack(t)
			w, _ := h.client(ModeQuery)
			t1 := begin(t, w) // earlier start
			t2 := begin(t, w)
			put(t, t2, "k0", "early-commit")
			put(t, t1, "k0", "late-commit")
			commit(t, t2)
			commit(t, t1)

			c, _ := h.client(mode)
			r := begin(t, c)
			if v, ok := get(t, r, "k0"); !ok || v != "late-commit" {
				t.Fatalf("read %q,%v, want the later commit", v, ok)
			}
			commit(t, r)
			if a, b := h.stampOf("k0", t1.StartTS()), h.stampOf("k0", t2.StartTS()); a != t1.CommitTS() || b != t2.CommitTS() {
				t.Fatalf("stamps %d,%d want %d,%d", a, b, t1.CommitTS(), t2.CommitTS())
			}

			collector, arb := h.client(mode)
			n, err := collector.GC()
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 || h.store.VersionCount() != 1 {
				t.Fatalf("GC reclaimed %d leaving %d versions, want 1 and 1", n, h.store.VersionCount())
			}
			if _, err := h.store.GetVersion("k0", t1.StartTS()); err != nil {
				t.Fatal("GC dropped the later commit")
			}
			if q := arb.lookups.Load(); q != 0 {
				t.Fatalf("GC over a fully stamped store issued %d lookups", q)
			}
		})
	}
}

// TestGCStampsWhatItLearns: a row nobody reads is asked about by the first
// collector pass and never again.
func TestGCStampsWhatItLearns(t *testing.T) {
	h := newHealStack(t)
	w, _ := h.client(ModeQuery)
	tx := begin(t, w)
	put(t, tx, "k0", "unread")
	commit(t, tx)
	collector, arb := h.client(ModeQuery)
	for pass, want := range []int64{1, 1} {
		if _, err := collector.GC(); err != nil {
			t.Fatal(err)
		}
		if n := arb.lookups.Load(); n != want {
			t.Fatalf("after pass %d the collector had issued %d lookups, want %d", pass+1, n, want)
		}
	}
	if tc := h.stampOf("k0", tx.StartTS()); tc != tx.CommitTS() {
		t.Fatalf("collector stamped %d, want %d", tc, tx.CommitTS())
	}
}

// referenceRead is the read path with no memory: every stored version's fate
// is asked of the oracle, stamps are ignored.
func referenceRead(store *kvstore.Store, so *oracle.StatusOracle, key string, startTS uint64) (string, bool) {
	var bestTC uint64
	var raw []byte
	for _, v := range store.Get(key, startTS, 0) {
		if st := so.Query(v.TS); st.Status == oracle.StatusCommitted && st.CommitTS < startTS && st.CommitTS > bestTC {
			bestTC, raw = st.CommitTS, v.Value
		}
	}
	val, live := decodeValue(raw)
	return string(val), live
}

// TestHealRaceMatchesReference races readers (healing), writers, aborters
// and the collector on 8 hot keys for a fixed number of transactions; every
// value a reader gets must be what the memoryless reference reads at the
// same snapshot. Run with -race: stamping, reading and collecting all meet
// on the same rows.
func TestHealRaceMatchesReference(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHealStack(t)
			c, _ := h.client(mode)
			keys := make([]string, 8)
			seed := begin(t, c)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
				put(t, seed, keys[i], "seed")
			}
			commit(t, seed)

			const readers, writers, txnsEach = 3, 3, 200
			// lows[r] is a start timestamp reader r's next snapshot cannot
			// precede; the collector's mark is their minimum.
			var lows [readers]atomic.Uint64
			for r := range lows {
				lows[r].Store(seed.StartTS())
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for n := 0; n < txnsEach; n++ {
						tx, err := c.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < 2; i++ {
							k := keys[rng.Intn(len(keys))]
							if rng.Intn(10) == 0 {
								err = tx.Delete(k)
							} else {
								err = tx.Put(k, []byte(fmt.Sprintf("w%d.%d", w, n)))
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
						if n%4 == 3 {
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
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for n := 0; n < txnsEach; n++ {
						tx, err := c.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						got := map[string]string{}
						switch n % 3 {
						case 0:
							k := keys[rng.Intn(len(keys))]
							if v, ok, err := tx.Get(k); err != nil {
								t.Error(err)
								return
							} else if ok {
								got[k] = string(v)
							} else {
								got[k] = "<none>"
							}
						case 1:
							values, ok, err := tx.GetMulti(keys)
							if err != nil {
								t.Error(err)
								return
							}
							for i, k := range keys {
								got[k] = "<none>"
								if ok[i] {
									got[k] = string(values[i])
								}
							}
						default:
							rows, err := tx.Scan("", "", 0)
							if err != nil {
								t.Error(err)
								return
							}
							for _, k := range keys {
								got[k] = "<none>"
							}
							for _, kv := range rows {
								got[kv.Key] = string(kv.Value)
							}
						}
						for k, v := range got {
							want, ok := referenceRead(h.store, h.so, k, tx.StartTS())
							if !ok {
								want = "<none>"
							}
							if v != want {
								t.Errorf("reader %d txn %d (snapshot %d) key %s: read %q, reference %q", r, n, tx.StartTS(), k, v, want)
								return
							}
						}
						if err := tx.Commit(); err != nil { // read-only: never conflicts
							t.Error(err)
							return
						}
						lows[r].Store(tx.StartTS())
					}
				}(r)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < txnsEach; n++ {
					low := ^uint64(0)
					for r := range lows {
						if v := lows[r].Load(); v < low {
							low = v
						}
					}
					c.GCAt(low)
				}
			}()
			wg.Wait()
		})
	}
}
