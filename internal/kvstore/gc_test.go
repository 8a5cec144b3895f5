package kvstore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// alwaysCommitted resolves every version as committed at writeTS+1 —
// useful where start order equals commit order.
func alwaysCommitted(key string, writeTS uint64) (uint64, GCStatus) {
	return writeTS + 1, GCCommitted
}

func TestCompactBeforeKeepsSnapshotVersion(t *testing.T) {
	s := New(Config{})
	for ts := uint64(10); ts <= 50; ts += 10 {
		s.Put("k", ts, []byte{byte(ts)})
	}
	// lowWater 35: versions committed at 11,21,31 below it; 31 retained,
	// 11 and 21 pruned; 41 and 51 kept (above the mark).
	removed := s.CompactBefore(35, alwaysCommitted)
	if removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if _, err := s.GetVersion("k", 30); err != nil {
		t.Fatal("snapshot-at-mark version pruned")
	}
	if _, err := s.GetVersion("k", 10); err == nil {
		t.Fatal("old version survived")
	}
	if _, err := s.GetVersion("k", 50); err != nil {
		t.Fatal("new version pruned")
	}
}

func TestCompactBeforeDropsAborted(t *testing.T) {
	s := New(Config{})
	s.Put("k", 10, []byte("good"))
	s.Put("k", 20, []byte("garbage"))
	resolve := func(key string, writeTS uint64) (uint64, GCStatus) {
		if writeTS == 20 {
			return 0, GCAborted
		}
		return writeTS + 1, GCCommitted
	}
	if n := s.CompactBefore(5, resolve); n != 1 {
		t.Fatalf("removed %d, want 1 (the aborted version)", n)
	}
	if _, err := s.GetVersion("k", 10); err != nil {
		t.Fatal("committed version pruned")
	}
}

func TestCompactBeforeKeepsPending(t *testing.T) {
	s := New(Config{})
	s.Put("k", 10, []byte("pending"))
	resolve := func(string, uint64) (uint64, GCStatus) { return 0, GCPending }
	if n := s.CompactBefore(1000, resolve); n != 0 {
		t.Fatalf("pruned %d pending versions", n)
	}
}

// TestGCReadsStampsNotResolver: over a fully stamped store the collector
// never calls the resolver, and a settled single-version row is left alone.
func TestGCReadsStampsNotResolver(t *testing.T) {
	s := New(Config{})
	s.Put("k", 10, []byte("old"))
	s.Put("k", 20, []byte("new"))
	s.Put("single", 10, []byte("only"))
	s.StampCommits([]Stamp{{"k", 10, 11}, {"k", 20, 21}, {"single", 10, 11}})
	resolve := func(key string, ts uint64) (uint64, GCStatus) {
		t.Errorf("resolver called for stamped version %s@%d", key, ts)
		return 0, GCPending
	}
	if n := s.CompactBefore(100, resolve); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	if _, err := s.GetVersion("k", 10); err == nil {
		t.Fatal("superseded version survived")
	}
	if commitTSOf(s, "k", 20) != 21 || commitTSOf(s, "single", 10) != 11 {
		t.Fatal("retained versions lost their stamps")
	}
}

// TestGCStampedMatchesResolverOnly runs the collector over the same random
// chains three ways — nothing stamped (every verdict from the resolver, the
// only road there used to be), every committed version stamped, and a random
// half stamped — and requires the same survivors each time. Chains include
// History-4 shapes (commit order differing from write order), aborted
// garbage and pending writers, on both sides of the mark; a row's commit
// timestamps are distinct, as one transaction has one.
func TestGCStampedMatchesResolverOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type fate struct {
		commitTS uint64
		status   GCStatus
	}
	for round := 0; round < 50; round++ {
		fates := map[string]map[uint64]fate{}
		for k := 0; k < 20; k++ {
			key := fmt.Sprintf("k%02d", k)
			fates[key] = map[uint64]fate{}
			used := map[uint64]bool{}
			for n := rng.Intn(7); n >= 0; n-- {
				ts := uint64(1 + rng.Intn(200))
				switch rng.Intn(6) {
				case 0:
					fates[key][ts] = fate{0, GCAborted}
				case 1:
					fates[key][ts] = fate{0, GCPending}
				default:
					tc := ts + 1 + uint64(rng.Intn(60))
					for used[tc] {
						tc++
					}
					used[tc] = true
					fates[key][ts] = fate{tc, GCCommitted}
				}
			}
		}
		lowWater := uint64(rng.Intn(260))
		build := func(stampOneIn int) (*Store, Resolver) {
			s := New(Config{})
			stamped := map[string]bool{}
			var stamps []Stamp
			for key, chain := range fates {
				for ts, f := range chain {
					s.Put(key, ts, []byte{byte(ts)})
					if f.status == GCCommitted && stampOneIn > 0 && rng.Intn(stampOneIn) == 0 {
						stamps = append(stamps, Stamp{key, ts, f.commitTS})
						stamped[fmt.Sprint(key, ts)] = true
					}
				}
			}
			s.StampCommits(stamps)
			return s, func(key string, ts uint64) (uint64, GCStatus) {
				if stamped[fmt.Sprint(key, ts)] {
					t.Errorf("resolver called for stamped version %s@%d", key, ts)
				}
				f := fates[key][ts]
				return f.commitTS, f.status
			}
		}
		ref, resolve := build(0)
		refRemoved := ref.CompactBefore(lowWater, resolve)
		for _, stampOneIn := range []int{1, 2} {
			s, resolve := build(stampOneIn)
			if n := s.CompactBefore(lowWater, resolve); n != refRemoved || survivors(s) != survivors(ref) {
				t.Fatalf("round %d lowWater %d stamping 1 in %d: removed %d, kept %s; resolver-only removed %d, kept %s",
					round, lowWater, stampOneIn, n, survivors(s), refRemoved, survivors(ref))
			}
		}
	}
}

// survivors lists every stored version as key@ts, in key and then write
// order: the whole rows, where Scan shows only each row's candidates.
func survivors(s *Store) string {
	var out []string
	var keys []string
	for key := range s.rows {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		vs := slices.Clone(s.rows[key].versions)
		slices.SortFunc(vs, func(a, b Version) int { return cmp.Compare(a.TS, b.TS) })
		for _, v := range vs {
			out = append(out, fmt.Sprint(key, "@", v.TS))
		}
	}
	return fmt.Sprint(out)
}

func TestVersionCountAcrossRegions(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("a%d", i), 1, []byte("v"))
		s.Put(fmt.Sprintf("z%d", i), 1, []byte("v"))
	}
	if n := s.VersionCount(); n != 20 {
		t.Fatalf("VersionCount = %d, want 20", n)
	}
}

func TestScanVersionsPerRow(t *testing.T) {
	s := New(Config{})
	for ts := uint64(1); ts <= 5; ts++ {
		s.Put("k", ts, []byte{byte(ts)})
	}
	rows := s.Scan("", "", 100, 2, 0)
	if len(rows) != 1 || len(rows[0].Versions) != 2 {
		t.Fatalf("scan versionsPerRow: %+v", rows)
	}
	if rows[0].Versions[0].TS != 5 {
		t.Fatalf("newest first violated: %d", rows[0].Versions[0].TS)
	}
}
