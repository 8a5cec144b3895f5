package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMultiGetMatchesGet checks the batched region read against per-key
// Get across a multi-region, multi-server topology: identical versions in
// identical order, missing keys yielding nil, duplicates answered
// independently.
func TestMultiGetMatchesGet(t *testing.T) {
	s := New(Config{Servers: 3, SplitKeys: []string{"k03", "k06", "k09"}})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("k%02d", i)
		for v := 0; v < 1+rng.Intn(4); v++ {
			s.Put(key, uint64(10*i+v+1), []byte(fmt.Sprintf("%s@%d", key, v)))
		}
	}
	keys := []string{"k00", "k11", "k05", "missing", "k05", "k09", "k02"}
	for _, before := range []uint64{^uint64(0), 55, 1} {
		got := s.MultiGet(keys, before, 0)
		if len(got) != len(keys) {
			t.Fatalf("MultiGet returned %d results for %d keys", len(got), len(keys))
		}
		for i, key := range keys {
			want := s.Get(key, before, 0)
			if len(got[i]) != len(want) {
				t.Fatalf("before=%d key %q: MultiGet %d versions, Get %d", before, key, len(got[i]), len(want))
			}
			for j := range want {
				if got[i][j].TS != want[j].TS || string(got[i][j].Value) != string(want[j].Value) {
					t.Fatalf("before=%d key %q version %d: %+v != %+v", before, key, j, got[i][j], want[j])
				}
			}
		}
	}
	// The version limit applies per key.
	limited := s.MultiGet([]string{"k01"}, ^uint64(0), 1)
	if len(limited[0]) != 1 {
		t.Fatalf("limit ignored: %d versions", len(limited[0]))
	}
	if empty := s.MultiGet(nil, ^uint64(0), 0); len(empty) != 0 {
		t.Fatalf("nil keys returned %d results", len(empty))
	}
}

// TestMultiGetChargesEveryRead checks cache/latency accounting parity: a
// batched read still counts one read per key (misses included), it just
// pays one lock pass per region server.
func TestMultiGetChargesEveryRead(t *testing.T) {
	s := New(Config{Servers: 2, SplitKeys: []string{"k5"}, CacheRows: 2})
	for i := 0; i < 8; i++ {
		s.Put(fmt.Sprintf("k%d", i), 1, []byte("v"))
	}
	before := s.Stats()
	keys := []string{"k0", "k3", "k6", "k7", "nope"}
	s.MultiGet(keys, ^uint64(0), 0)
	after := s.Stats()
	if got := after.Reads - before.Reads; got != int64(len(keys)) {
		t.Fatalf("batched read charged %d reads, want %d", got, len(keys))
	}
	if hitsMiss := (after.CacheHits - before.CacheHits) + (after.CacheMiss - before.CacheMiss); hitsMiss != int64(len(keys)) {
		t.Fatalf("cache accounting covered %d keys, want %d", hitsMiss, len(keys))
	}
}

// TestMultiGetIntoMatchesGetProperty drives random stores through random
// batched reads with ONE buffer reused for every call: each result must
// equal per-key Get — any before, any limit, missing and duplicate keys, and
// across region splits the puts trigger along the way.
func TestMultiGetIntoMatchesGetProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Servers: 1 + rng.Intn(3), MaxRegionRows: 4 + rng.Intn(5), CacheRows: rng.Intn(8)}
		for i := rng.Intn(4); i > 0; i-- {
			cfg.SplitKeys = append(cfg.SplitKeys, fmt.Sprintf("k%03d", rng.Intn(60)))
		}
		s := New(cfg)
		var buf ReadBuf
		regions := s.NumRegions()
		for round := 0; round < 40; round++ {
			for i := rng.Intn(12); i > 0; i-- {
				key := fmt.Sprintf("k%03d", rng.Intn(60))
				s.Put(key, uint64(1+rng.Intn(50)), []byte(fmt.Sprintf("%s#%d", key, round)))
			}
			keys := make([]string, rng.Intn(25))
			for i := range keys {
				keys[i] = fmt.Sprintf("k%03d", rng.Intn(70)) // k060..k069 are never written
			}
			before, limit := uint64(rng.Intn(55)), rng.Intn(4)
			if rng.Intn(4) == 0 {
				before = ^uint64(0)
			}
			s.MultiGetInto(&buf, keys, before, limit)
			for i, key := range keys {
				got, want := buf.Versions(i), s.Get(key, before, limit)
				if len(got) != len(want) {
					t.Fatalf("seed %d round %d key %q before=%d limit=%d: %d versions, Get has %d",
						seed, round, key, before, limit, len(got), len(want))
				}
				for j := range want {
					if got[j].TS != want[j].TS || string(got[j].Value) != string(want[j].Value) {
						t.Fatalf("seed %d round %d key %q version %d: %+v != %+v", seed, round, key, j, got[j], want[j])
					}
				}
			}
		}
		if s.NumRegions() == regions {
			t.Fatalf("seed %d: no region split happened; the property was not tested across one", seed)
		}
	}
}

// TestReadBufReuseInvalidatesPreviousResult pins the documented contract: a
// result lives in its buffer, so reading into the same buffer again
// overwrites what Versions returned before.
func TestReadBufReuseInvalidatesPreviousResult(t *testing.T) {
	s := New(Config{})
	s.Put("a", 1, []byte("a1"))
	s.Put("b", 2, []byte("b2"))
	var buf ReadBuf
	s.MultiGetInto(&buf, []string{"a"}, ^uint64(0), 0)
	first := buf.Versions(0)
	if len(first) != 1 || string(first[0].Value) != "a1" {
		t.Fatalf("first read: %+v", first)
	}
	s.MultiGetInto(&buf, []string{"b"}, ^uint64(0), 0)
	if second := buf.Versions(0); &first[0] != &second[0] {
		t.Fatal("the reused buffer did not reuse its arena")
	}
	if string(first[0].Value) != "b2" {
		t.Fatalf("the earlier result still reads %q: reuse is documented to invalidate it", first[0].Value)
	}
	// A result's slices are capped: appending to one cannot reach the next key's versions.
	s.MultiGetInto(&buf, []string{"a", "b"}, ^uint64(0), 0)
	_ = append(buf.Versions(0), Version{TS: 99})
	if got := buf.Versions(1); len(got) != 1 || got[0].TS != 2 {
		t.Fatalf("append to key 0's versions reached key 1's: %+v", got)
	}
}

// BenchmarkMultiGetHotRow reads 20 keys on a warm buffer, each a row of
// stamped versions and one pending write. A read copies only the pending
// write and the newest stamp, so ns/key should not grow with the chain.
func BenchmarkMultiGetHotRow(b *testing.B) {
	for _, stamped := range []int{0, 64} {
		b.Run(fmt.Sprintf("stamped-%d", stamped), func(b *testing.B) {
			s := New(Config{})
			keys := make([]string, 20)
			var stamps []Stamp
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", i)
				for ts := uint64(2); ts <= uint64(2*stamped); ts += 2 {
					s.Put(keys[i], ts, []byte("v"))
					stamps = append(stamps, Stamp{keys[i], ts, ts + 1})
				}
				s.Put(keys[i], 1000, []byte("pending"))
			}
			s.StampCommits(stamps)
			var buf ReadBuf
			s.MultiGetInto(&buf, keys, 2000, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MultiGetInto(&buf, keys, 2000, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
		})
	}
}
