package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPutGetVersions(t *testing.T) {
	s := New(Config{})
	s.Put("k", 10, []byte("v10"))
	s.Put("k", 20, []byte("v20"))
	s.Put("k", 30, []byte("v30"))

	vs := s.Get("k", 25, 0)
	if len(vs) != 2 {
		t.Fatalf("got %d versions, want 2", len(vs))
	}
	if vs[0].TS != 20 || string(vs[0].Value) != "v20" {
		t.Fatalf("newest visible = %d/%q, want 20/v20", vs[0].TS, vs[0].Value)
	}
	if vs[1].TS != 10 {
		t.Fatalf("older = %d, want 10", vs[1].TS)
	}
}

func TestGetBeforeIsExclusive(t *testing.T) {
	s := New(Config{})
	s.Put("k", 10, []byte("v"))
	if vs := s.Get("k", 10, 0); len(vs) != 0 {
		t.Fatalf("ts==before must be invisible, got %d versions", len(vs))
	}
	if vs := s.Get("k", 11, 0); len(vs) != 1 {
		t.Fatalf("ts<before must be visible")
	}
}

func TestGetLimit(t *testing.T) {
	s := New(Config{})
	for ts := uint64(1); ts <= 10; ts++ {
		s.Put("k", ts, []byte{byte(ts)})
	}
	vs := s.Get("k", 100, 3)
	if len(vs) != 3 || vs[0].TS != 10 {
		t.Fatalf("limit ignored: %v", vs)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := New(Config{})
	if vs := s.Get("missing", 100, 0); vs != nil {
		t.Fatalf("missing key returned versions: %v", vs)
	}
}

func TestOverwriteSameTimestampIdempotent(t *testing.T) {
	s := New(Config{})
	s.Put("k", 5, []byte("first"))
	s.Put("k", 5, []byte("second"))
	vs := s.Get("k", 6, 0)
	if len(vs) != 1 || string(vs[0].Value) != "second" {
		t.Fatalf("same-ts rewrite: %v", vs)
	}
}

func TestGetVersionExact(t *testing.T) {
	s := New(Config{})
	s.Put("k", 5, []byte("five"))
	v, err := s.GetVersion("k", 5)
	if err != nil || string(v.Value) != "five" {
		t.Fatalf("GetVersion = %q, %v", v.Value, err)
	}
	if _, err := s.GetVersion("k", 6); err != ErrNoSuchVersion {
		t.Fatalf("err = %v, want ErrNoSuchVersion", err)
	}
	if _, err := s.GetVersion("absent", 5); err != ErrNoSuchVersion {
		t.Fatalf("err = %v, want ErrNoSuchVersion", err)
	}
}

func TestDeleteVersion(t *testing.T) {
	s := New(Config{})
	s.Put("k", 5, []byte("x"))
	s.Put("k", 7, []byte("y"))
	s.DeleteVersion("k", 5)
	if _, err := s.GetVersion("k", 5); err == nil {
		t.Fatal("deleted version still present")
	}
	if _, err := s.GetVersion("k", 7); err != nil {
		t.Fatal("unrelated version removed")
	}
	s.DeleteVersion("k", 99)      // no-op
	s.DeleteVersion("absent", 99) // no-op
}

// commitTSOf reads the stamp of the version of key written at ts (0 when
// unstamped or absent).
func commitTSOf(s *Store, key string, ts uint64) uint64 {
	v, _ := s.GetVersion(key, ts)
	return v.CommitTS
}

// TestStampCommitsIsReturnedByEveryRead: a stamp lands on the version it
// names, across regions in one call, and Get, GetInto, MultiGet and Scan all
// hand back the same candidates with their stamps: the pending versions
// written before the snapshot and the one stamped version committed last
// before it, newest write first. a@3 commits last (History 4's shape).
func TestStampCommitsIsReturnedByEveryRead(t *testing.T) {
	s := New(Config{Servers: 2, SplitKeys: []string{"m"}})
	for _, ts := range []uint64{5, 7, 3, 20, 10} {
		s.Put("a", ts, []byte{byte(ts)})
	}
	s.Put("z", 5, []byte("x"))
	if tc := commitTSOf(s, "a", 5); tc != 0 {
		t.Fatalf("fresh version stamped %d", tc)
	}
	s.StampCommits([]Stamp{{"a", 5, 9}, {"z", 5, 9}, {"a", 7, 12}, {"a", 3, 15}})
	if a5, a7, a3, z5 := commitTSOf(s, "a", 5), commitTSOf(s, "a", 7), commitTSOf(s, "a", 3), commitTSOf(s, "z", 5); a5 != 9 || a7 != 12 || a3 != 15 || z5 != 9 {
		t.Fatalf("stamps a@5=%d a@7=%d a@3=%d z@5=%d, want 9 12 15 9", a5, a7, a3, z5)
	}
	v := func(ts, tc uint64) Version { return Version{TS: ts, Value: []byte{byte(ts)}, CommitTS: tc} }
	for _, tc := range []struct {
		before uint64
		want   []Version
	}{
		{100, []Version{v(20, 0), v(10, 0), v(3, 15)}},
		{15, []Version{v(10, 0), v(7, 12)}},
		{11, []Version{v(10, 0), v(5, 9)}},
		{10, []Version{v(5, 9)}},
		{4, nil}, // a@3 is written below 4 but committed above it
	} {
		var buf [4]Version
		reads := map[string][]Version{
			"Get":      s.Get("a", tc.before, 0),
			"GetInto":  s.GetInto(buf[:0], "a", tc.before, 0),
			"MultiGet": s.MultiGet([]string{"z", "a"}, tc.before, 0)[1],
		}
		if rows := s.Scan("a", "b", tc.before, 0, 0); len(rows) != 1 {
			t.Errorf("before %d: Scan returned %d rows, want a's (it holds a version written below)", tc.before, len(rows))
		} else {
			reads["Scan"] = rows[0].Versions
		}
		for name, got := range reads {
			if len(got) != len(tc.want) || (len(got) > 0 && !reflect.DeepEqual(got, tc.want)) {
				t.Errorf("before %d: %s = %+v, want %+v", tc.before, name, got, tc.want)
			}
		}
		if got := s.Get("a", tc.before, 1); len(tc.want) > 0 && (len(got) != 1 || got[0].TS != tc.want[0].TS) {
			t.Errorf("before %d: limit 1 = %+v, want the newest candidate %d", tc.before, got, tc.want[0].TS)
		}
	}
}

// TestStampForMissingVersionIsNoOp: a stamp for a version that is not there
// (cleaned up, collected, never written) creates nothing — no phantom row to
// scan, count toward a split, or collect.
func TestStampForMissingVersionIsNoOp(t *testing.T) {
	s := New(Config{MaxRegionRows: 1})
	s.Put("k", 5, []byte("x"))
	s.StampCommits([]Stamp{{"absent", 5, 9}, {"k", 4, 9}, {"k", 6, 9}, {"other", 1, 2}})
	s.StampCommits(nil)
	if n := s.VersionCount(); n != 1 {
		t.Fatalf("VersionCount = %d after stamping missing versions, want 1", n)
	}
	if rows := s.Scan("", "", 100, 0, 0); len(rows) != 1 {
		t.Fatalf("scan sees %d rows, want 1", len(rows))
	}
	if s.NumRegions() != 1 {
		t.Fatalf("phantom rows split the region: %d regions", s.NumRegions())
	}
	if tc := commitTSOf(s, "k", 5); tc != 0 {
		t.Fatalf("neighbouring version stamped %d", tc)
	}
}

// TestStampDoesNotSurviveRewrite: a transaction rewriting its own tentative
// write stores a whole new version, so whatever was stamped on the replaced
// one is gone with its bytes.
func TestStampDoesNotSurviveRewrite(t *testing.T) {
	s := New(Config{})
	s.Put("k", 5, []byte("first"))
	s.StampCommits([]Stamp{{"k", 5, 9}})
	s.Put("k", 5, []byte("second"))
	v, err := s.GetVersion("k", 5)
	if err != nil || string(v.Value) != "second" || v.CommitTS != 0 {
		t.Fatalf("rewritten version = %+v, %v; want second, unstamped", v, err)
	}
}

func TestValueCopiedOnPut(t *testing.T) {
	s := New(Config{})
	buf := []byte("mutable")
	s.Put("k", 1, buf)
	buf[0] = 'X'
	vs := s.Get("k", 2, 0)
	if string(vs[0].Value) != "mutable" {
		t.Fatal("store aliases caller's buffer")
	}
}

func TestRegionPartitioning(t *testing.T) {
	s := New(Config{Servers: 3, SplitKeys: []string{"g", "p"}})
	if s.NumRegions() != 3 {
		t.Fatalf("regions = %d, want 3", s.NumRegions())
	}
	// Keys land in the right region regardless of server count.
	for _, k := range []string{"a", "g", "h", "p", "z", ""} {
		r := s.regionFor(k)
		if k < r.StartKey || (r.EndKey != "" && k >= r.EndKey) {
			t.Fatalf("key %q routed to region [%q,%q)", k, r.StartKey, r.EndKey)
		}
	}
}

func TestScanOrderedAndBounded(t *testing.T) {
	s := New(Config{SplitKeys: []string{"m"}})
	keys := []string{"d", "a", "z", "m", "b", "q"}
	for i, k := range keys {
		s.Put(k, uint64(i+1), []byte(k))
	}
	rows := s.Scan("b", "q", 100, 0, 0)
	want := []string{"b", "d", "m"}
	if len(rows) != len(want) {
		t.Fatalf("scan rows = %v", rows)
	}
	for i, r := range rows {
		if r.Key != want[i] {
			t.Fatalf("row %d = %q, want %q", i, r.Key, want[i])
		}
	}
	// Unbounded end.
	all := s.Scan("", "", 100, 0, 0)
	if len(all) != len(keys) {
		t.Fatalf("full scan returned %d rows, want %d", len(all), len(keys))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatalf("scan not ordered: %q >= %q", all[i-1].Key, all[i].Key)
		}
	}
	// Row limit.
	if lim := s.Scan("", "", 100, 0, 2); len(lim) != 2 {
		t.Fatalf("limit ignored: %d rows", len(lim))
	}
}

func TestScanRespectsSnapshot(t *testing.T) {
	s := New(Config{})
	s.Put("a", 10, []byte("old"))
	s.Put("b", 50, []byte("new"))
	rows := s.Scan("", "", 20, 0, 0)
	if len(rows) != 1 || rows[0].Key != "a" {
		t.Fatalf("snapshot scan = %v", rows)
	}
}

func TestAutoSplit(t *testing.T) {
	s := New(Config{Servers: 4, MaxRegionRows: 10})
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("key%03d", i), 1, []byte("v"))
	}
	if s.NumRegions() < 4 {
		t.Fatalf("auto-split produced only %d regions", s.NumRegions())
	}
	// All keys still reachable.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key%03d", i)
		if vs := s.Get(k, 2, 0); len(vs) != 1 {
			t.Fatalf("key %q lost after splits", k)
		}
	}
	// Scans still produce everything in order.
	rows := s.Scan("", "", 2, 0, 0)
	if len(rows) != 100 {
		t.Fatalf("scan after splits: %d rows, want 100", len(rows))
	}
}

// TestPutUnderConcurrentSplits: writers walk the keyspace together with a
// small MaxRegionRows, so the region they all write to splits every few
// rows. A Put that located its region before a split and wrote after it
// used to leave the version in the lower half, where no reader looks; every
// acked write must be readable once the writers are done.
func TestPutUnderConcurrentSplits(t *testing.T) {
	const writers, perWriter = 8, 300
	s := New(Config{Servers: 2, MaxRegionRows: 4})
	key := func(w, i int) string { return fmt.Sprintf("key%04d-%d", i, w) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Put(key(w, i), 1, []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	if s.NumRegions() < writers {
		t.Fatalf("only %d regions: the writers never raced a split", s.NumRegions())
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if vs := s.Get(key(w, i), 2, 0); len(vs) != 1 {
				t.Fatalf("acked write %s unreadable after concurrent splits (%d versions)", key(w, i), len(vs))
			}
		}
	}
	if rows := s.Scan("", "", 2, 0, 0); len(rows) != writers*perWriter {
		t.Fatalf("scan sees %d rows, want %d", len(rows), writers*perWriter)
	}
}

// TestReadsUnderConcurrentSplits: readers of acked keys race writers whose
// puts split the regions every few rows. A read that located its region
// before a split and read it after would miss the moved row; Get,
// MultiGetInto and GetVersion must find every acked write every time.
func TestReadsUnderConcurrentSplits(t *testing.T) {
	const writers, perWriter, readers = 4, 300, 4
	s := New(Config{Servers: 2, MaxRegionRows: 4})
	key := func(w, i int) string { return fmt.Sprintf("key%04d-%d", i, w) }
	var acked [writers]atomic.Int64
	var wg, readersWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		s.Put(key(w, 0), 1, []byte("v"))
		acked[w].Store(1)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i < perWriter; i++ {
				s.Put(key(w, i), 1, []byte("v"))
				acked[w].Store(int64(i + 1))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var buf ReadBuf
			keys := make([]string, 8)
			for {
				select {
				case <-done:
					return
				default:
				}
				for j := range keys {
					w := rng.Intn(writers)
					keys[j] = key(w, rng.Intn(int(acked[w].Load())))
					if vs := s.Get(keys[j], 2, 0); len(vs) != 1 {
						t.Errorf("Get of acked %s saw %d versions", keys[j], len(vs))
						return
					}
					if _, err := s.GetVersion(keys[j], 1); err != nil {
						t.Errorf("GetVersion of acked %s: %v", keys[j], err)
						return
					}
				}
				s.MultiGetInto(&buf, keys, 2, 0)
				for j, k := range keys {
					if len(buf.Versions(j)) != 1 {
						t.Errorf("MultiGetInto of acked %s saw %d versions", k, len(buf.Versions(j)))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readersWG.Wait()
	if s.NumRegions() < writers {
		t.Fatalf("only %d regions: the readers never raced a split", s.NumRegions())
	}
}

// TestAbortCleanupUnderConcurrentSplits: every writer also leaves a version
// that its abort removes while splits run. A delete sent to the region that
// held the row before a split would find nothing and orphan the version;
// afterwards exactly the committed writes remain.
func TestAbortCleanupUnderConcurrentSplits(t *testing.T) {
	const writers, perWriter = 8, 300
	s := New(Config{Servers: 2, MaxRegionRows: 4})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("key%04d-%d", i, w)
				s.Put(k, 1, []byte("committed"))
				s.Put(k, 2, []byte("aborted"))
				s.DeleteVersion(k, 2)
			}
		}(w)
	}
	wg.Wait()
	if s.NumRegions() < writers {
		t.Fatalf("only %d regions: the aborts never raced a split", s.NumRegions())
	}
	if n := s.VersionCount(); n != writers*perWriter {
		t.Fatalf("VersionCount = %d after abort cleanup, want the %d committed writes", n, writers*perWriter)
	}
}

func TestSplitPreservesVersionsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{Servers: 2, MaxRegionRows: 5})
		type put struct {
			key string
			ts  uint64
		}
		var puts []put
		for i := 0; i < 60; i++ {
			p := put{key: fmt.Sprintf("k%02d", rng.Intn(30)), ts: uint64(i + 1)}
			puts = append(puts, p)
			s.Put(p.key, p.ts, []byte(p.key))
		}
		for _, p := range puts {
			if _, err := s.GetVersion(p.key, p.ts); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	s := New(Config{Servers: 4, SplitKeys: []string{"k05", "k10", "k15"}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(20))
				if rng.Intn(2) == 0 {
					s.Put(k, uint64(g*1000+i+1), []byte(k))
				} else {
					s.Get(k, uint64(rng.Intn(5000)), 4)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Writes == 0 || st.Reads == 0 {
		t.Fatalf("stats missing activity: %+v", st)
	}
}

func TestBlockCacheHitMiss(t *testing.T) {
	s := New(Config{Servers: 1, CacheRows: 2})
	s.Put("a", 1, []byte("x")) // resident via write
	s.Get("a", 2, 0)           // hit
	s.Get("b", 2, 0)           // miss (not resident)
	s.Get("b", 2, 0)           // now hit
	st := s.Stats()
	if st.CacheMiss != 1 {
		t.Fatalf("misses = %d, want 1", st.CacheMiss)
	}
	if st.CacheHits != 2 {
		t.Fatalf("hits = %d, want 2", st.CacheHits)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	c.add("a")
	c.add("b")
	c.touch("a") // a most recent
	c.add("c")   // evicts b
	if !c.contains("a") || !c.contains("c") || c.contains("b") {
		t.Fatal("LRU evicted the wrong entry")
	}
}

func TestStoreString(t *testing.T) {
	s := New(Config{Servers: 2, SplitKeys: []string{"m"}})
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}
