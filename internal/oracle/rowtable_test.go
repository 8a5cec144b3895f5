package oracle

import (
	"math/rand"
	"testing"
)

// TestOpenRowTableFuzz drives random put/overwrite/delete traffic through
// the open-addressed table and a reference map, checking full contents
// after every operation. Small key spaces force long probe chains, hot-key
// overwrites and wraparound runs; the growing phase exercises the
// incremental rehash (lookups and deletes against both arrays). The table
// starts empty or pre-sized, as New sizes it from MaxRows.
func TestOpenRowTableFuzz(t *testing.T) {
	for _, sizeHint := range []int{0, 64} {
		for _, keySpace := range []uint64{8, 64, 4096} {
			fuzzRowTable(t, sizeHint, keySpace)
		}
	}
}

func fuzzRowTable(t *testing.T, sizeHint int, keySpace uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(keySpace)))
	tab := newOpenRowTable(sizeHint)
	ref := make(map[RowID]uint64)
	for op := 0; op < 200_000; op++ {
		key := RowID(rng.Uint64() % keySpace) // includes key 0 (out-of-line slot)
		switch rng.Intn(3) {
		case 0, 1:
			ts := rng.Uint64()
			tab.put(key, ts)
			ref[key] = ts
		case 2:
			tab.del(key)
			delete(ref, key)
		}
		if tab.len() != len(ref) {
			t.Fatalf("sizeHint %d keySpace %d op %d: len = %d, want %d", sizeHint, keySpace, op, tab.len(), len(ref))
		}
		// Spot-check a few keys every iteration, all keys occasionally.
		for i := 0; i < 4; i++ {
			k := RowID(rng.Uint64() % keySpace)
			ts, ok := tab.get(k)
			rts, rok := ref[k]
			if ok != rok || ts != rts {
				t.Fatalf("sizeHint %d keySpace %d op %d: get(%d) = (%d,%v), want (%d,%v)", sizeHint, keySpace, op, k, ts, ok, rts, rok)
			}
		}
		if op%4096 == 0 {
			seen := make(map[RowID]uint64, tab.len())
			tab.forEach(func(k RowID, ts uint64) {
				if _, dup := seen[k]; dup {
					t.Fatalf("sizeHint %d keySpace %d op %d: forEach visits %d twice", sizeHint, keySpace, op, k)
				}
				seen[k] = ts
			})
			if len(seen) != len(ref) {
				t.Fatalf("sizeHint %d keySpace %d op %d: forEach saw %d keys, want %d", sizeHint, keySpace, op, len(seen), len(ref))
			}
			for k, ts := range ref {
				if seen[k] != ts {
					t.Fatalf("sizeHint %d keySpace %d op %d: forEach[%d] = %d, want %d", sizeHint, keySpace, op, k, seen[k], ts)
				}
			}
		}
	}
}

// TestOpenRowTableRehashDrains proves the incremental rehash completes: after
// enough operations the old array is dropped and every key answers from the
// new one.
func TestOpenRowTableRehashDrains(t *testing.T) {
	tab := newOpenRowTable(0)
	const n = 10_000
	for i := uint64(1); i <= n; i++ {
		tab.put(RowID(i), i*10)
	}
	if tab.rehashes == 0 {
		t.Fatal("expected at least one rehash")
	}
	// Reads don't migrate; mutations do. A few no-op overwrites drain it.
	for i := uint64(1); tab.old != nil; i++ {
		tab.put(RowID(i%n+1), (i%n+1)*10)
		if i > 10*n {
			t.Fatal("rehash never drained")
		}
	}
	for i := uint64(1); i <= n; i++ {
		if ts, ok := tab.get(RowID(i)); !ok || ts != i*10 {
			t.Fatalf("get(%d) = (%d,%v) after drain", i, ts, ok)
		}
	}
	if tab.len() != n {
		t.Fatalf("len = %d, want %d", tab.len(), n)
	}
}
