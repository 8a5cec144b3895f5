package kvstore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// flatRow is the row as it was kept before the commit-order layout: one
// chain, newest write first, every read handed all of it below the snapshot
// and every collection two passes over it. FuzzRowOps holds row to it.
type flatRow struct {
	versions []Version
}

func (rw *flatRow) insert(v Version) {
	i := sort.Search(len(rw.versions), func(i int) bool { return rw.versions[i].TS <= v.TS })
	if i < len(rw.versions) && rw.versions[i].TS == v.TS {
		rw.versions[i] = v
		return
	}
	rw.versions = slices.Insert(rw.versions, i, v)
}

func (rw *flatRow) find(ts uint64) int {
	for i := range rw.versions {
		if rw.versions[i].TS == ts {
			return i
		}
	}
	return -1
}

func (rw *flatRow) below(before uint64) []Version {
	var out []Version
	for _, v := range rw.versions {
		if v.TS < before {
			out = append(out, v)
		}
	}
	return out
}

func (rw *flatRow) compactBefore(lowWater uint64, resolve func(ts uint64) (uint64, GCStatus)) int {
	removed := 0
	var bestTC uint64
	kept := rw.versions[:0]
	for _, v := range rw.versions {
		if v.CommitTS == 0 {
			tc, st := resolve(v.TS)
			if st == GCAborted {
				removed++
				continue
			}
			if st == GCCommitted {
				v.CommitTS = tc
			}
		}
		if tc := v.CommitTS; tc != 0 && tc < lowWater && tc > bestTC {
			bestTC = tc
		}
		kept = append(kept, v)
	}
	rw.versions, kept = kept, kept[:0]
	for _, v := range rw.versions {
		if v.CommitTS != 0 && v.CommitTS < bestTC {
			removed++
			continue
		}
		kept = append(kept, v)
	}
	rw.versions = kept
	return removed
}

// rowFate is the fixed fate of the writer at ts: every fifth aborts, every
// seventh never decides, the rest commit at a timestamp above every write
// timestamp, distinct per writer and in an order unrelated to write order.
func rowFate(ts uint64) (uint64, GCStatus) {
	switch {
	case ts%5 == 0:
		return 0, GCAborted
	case ts%7 == 0:
		return 0, GCPending
	}
	return 256 + ts*167%256, GCCommitted
}

// rowPick is txn's read rule over a row's versions: the committed version
// with the largest commit timestamp below before, a stamp when there is
// one, the writer's fate otherwise. It also returns the write timestamps a
// reader would have had to ask about.
func rowPick(versions []Version, before uint64) (pick string, asked []uint64) {
	var bestTC uint64
	for _, v := range versions {
		tc := v.CommitTS
		if tc == 0 {
			asked = append(asked, v.TS)
			var st GCStatus
			if tc, st = rowFate(v.TS); st != GCCommitted {
				continue
			}
		}
		if tc < before && tc > bestTC {
			bestTC, pick = tc, fmt.Sprintf("%d=%x", v.TS, v.Value)
		}
	}
	return pick, asked
}

// FuzzRowOps decodes the input into Put, StampCommits, DeleteVersion and
// CompactBefore steps on one row, applied both to the store and to a flat
// newest-first chain. After every step a read at several snapshots must
// pick the same version and ask about the same writers, and the two must
// hold the same versions with the same stamps.
func FuzzRowOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New(Config{})
		ref := &flatRow{}
		resolve := func(_ string, ts uint64) (uint64, GCStatus) { return rowFate(ts) }
		for i := 0; i+1 < len(ops); i += 2 {
			op, ts := ops[i]%4, uint64(ops[i+1])
			switch op {
			case 0:
				val := []byte{byte(i), byte(i >> 8)}
				s.Put("k", ts, val)
				ref.insert(Version{TS: ts, Value: val})
			case 1:
				if tc, st := rowFate(ts); st == GCCommitted {
					s.StampCommits([]Stamp{{"k", ts, tc}})
					if j := ref.find(ts); j >= 0 {
						ref.versions[j].CommitTS = tc
					}
				}
			case 2:
				s.DeleteVersion("k", ts)
				if j := ref.find(ts); j >= 0 {
					ref.versions = slices.Delete(ref.versions, j, j+1)
				}
			case 3:
				lowWater := 2 * ts
				got := s.CompactBefore(lowWater, resolve)
				want := ref.compactBefore(lowWater, func(ts uint64) (uint64, GCStatus) { return rowFate(ts) })
				if got != want {
					t.Fatalf("step %d: CompactBefore(%d) removed %d, flat chain %d", i/2, lowWater, got, want)
				}
			}
			if n := s.VersionCount(); n != len(ref.versions) {
				t.Fatalf("step %d: %d versions, flat chain holds %d", i/2, n, len(ref.versions))
			}
			if rw := s.rows["k"]; rw != nil {
				byTS := slices.Clone(rw.versions)
				slices.SortFunc(byTS, func(a, b Version) int { return cmp.Compare(b.TS, a.TS) })
				if fmt.Sprint(byTS) != fmt.Sprint(ref.versions) {
					t.Fatalf("step %d: row %v, flat chain %v", i/2, byTS, ref.versions)
				}
			}
			for _, before := range []uint64{ts, ts + 1, 2*ts + 3, 256 + ts, ^uint64(0)} {
				got := s.GetInto(nil, "k", before, 0)
				gotPick, gotAsked := rowPick(got, before)
				wantPick, wantAsked := rowPick(ref.below(before), before)
				if gotPick != wantPick || fmt.Sprint(gotAsked) != fmt.Sprint(wantAsked) {
					t.Fatalf("step %d before %d: picked %q asking %v from %v; flat chain picks %q asking %v",
						i/2, before, gotPick, gotAsked, got, wantPick, wantAsked)
				}
				if first := s.Get("k", before, 1); len(got) > 0 && (len(first) != 1 || first[0].TS != got[0].TS) {
					t.Fatalf("step %d before %d: limit 1 gave %v, candidates %v", i/2, before, first, got)
				}
			}
		}
	})
}
