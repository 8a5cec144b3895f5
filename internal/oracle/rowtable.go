package oracle

// This file implements lastCommit's row table. The paper's throughput
// argument (§6.3) is that a commit check is a handful of memory operations
// in one critical section; a Go map puts bucket pointers, tophash probes and
// incremental-growth allocations on that path. The open table stores (row,
// timestamp) pairs inline in a flat power-of-two slot array, so a conflict
// check is a linear cache-line scan from the row's hashed home slot with
// zero pointer chasing, and — because deletion is tombstone-free
// (backward-shift) and growth is an incremental rehash into a retained twin
// array — the table never degrades and never allocates once it has reached
// its working-set size. TestOpenRowTableFuzz checks it against a map.

// rowSlot is one inline slot of the open table. key == 0 marks an empty
// slot; RowID 0 itself (a valid FNV hash value) is carried out of line in
// zeroSet/zeroTS.
type rowSlot struct {
	key RowID
	ts  uint64
}

// rehashStep bounds how many old-table runs one mutating operation
// migrates, keeping the rehash cost amortized O(1) per operation rather
// than a stop-the-world pause at growth time.
const rehashStep = 2

// minTableSlots is the initial power-of-two slot count.
const minTableSlots = 16

// maxTableLoad is the numerator of the load-factor bound over 4: grow when
// live keys exceed 3/4 of the slots.
const maxTableLoad = 3

// openRowTable is an open-addressed, linear-probe hash table from RowID to
// last-commit timestamp. Not safe for concurrent use; StatusOracle.mu
// serializes access.
type openRowTable struct {
	slots []rowSlot
	mask  uint64
	n     int // live keys in slots (excluding the zero key)

	zeroSet bool
	zeroTS  uint64

	// Incremental rehash: on growth the previous slot array is retained as
	// old and drained run-by-run by subsequent mutations; lookups consult
	// both arrays until the drain completes.
	old      []rowSlot
	oldMask  uint64
	oldN     int
	sweep    uint64
	rehashes int64
}

func newOpenRowTable(sizeHint int) *openRowTable {
	size := minTableSlots
	for size*maxTableLoad < sizeHint*4 {
		size <<= 1
	}
	return &openRowTable{slots: make([]rowSlot, size), mask: uint64(size - 1)}
}

// mixRow finalizes a RowID into its home-slot hash (splitmix64 finalizer).
// RowIDs are already FNV hashes, but their low bits were consumed by the
// partition hash router (r % N), so the table re-mixes to keep home slots
// uniform within a partition.
func mixRow(r RowID) uint64 {
	x := uint64(r)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// len returns the number of live keys.
func (t *openRowTable) len() int {
	n := t.n + t.oldN
	if t.zeroSet {
		n++
	}
	return n
}

// get returns the timestamp stored for key.
func (t *openRowTable) get(key RowID) (uint64, bool) {
	if key == 0 {
		return t.zeroTS, t.zeroSet
	}
	for i := mixRow(key) & t.mask; t.slots[i].key != 0; i = (i + 1) & t.mask {
		if t.slots[i].key == key {
			return t.slots[i].ts, true
		}
	}
	if t.old != nil {
		for i := mixRow(key) & t.oldMask; t.old[i].key != 0; i = (i + 1) & t.oldMask {
			if t.old[i].key == key {
				return t.old[i].ts, true
			}
		}
	}
	return 0, false
}

// put inserts or overwrites key's timestamp.
func (t *openRowTable) put(key RowID, ts uint64) {
	t.migrate(rehashStep)
	if key == 0 {
		t.zeroSet = true
		t.zeroTS = ts
		return
	}
	if t.old == nil && (t.n+1)*4 > len(t.slots)*maxTableLoad {
		t.grow()
	}
	if t.old != nil {
		// The key may still live in the old array (including the one a
		// grow just retired); evict it there so the new array's entry is
		// the single source of truth.
		if t.removeOld(key) {
			t.oldN--
		}
	}
	i := mixRow(key) & t.mask
	for ; t.slots[i].key != 0; i = (i + 1) & t.mask {
		if t.slots[i].key == key {
			t.slots[i].ts = ts
			return
		}
	}
	t.slots[i] = rowSlot{key: key, ts: ts}
	t.n++
}

// del removes key, if present, with tombstone-free backward-shift deletion.
func (t *openRowTable) del(key RowID) {
	t.migrate(rehashStep)
	if key == 0 {
		t.zeroSet = false
		t.zeroTS = 0
		return
	}
	for i := mixRow(key) & t.mask; t.slots[i].key != 0; i = (i + 1) & t.mask {
		if t.slots[i].key == key {
			backwardShift(t.slots, t.mask, i)
			t.n--
			return
		}
	}
	if t.old != nil && t.removeOld(key) {
		t.oldN--
	}
}

// removeOld deletes key from the old array (backward-shift), reporting
// whether it was present.
func (t *openRowTable) removeOld(key RowID) bool {
	for i := mixRow(key) & t.oldMask; t.old[i].key != 0; i = (i + 1) & t.oldMask {
		if t.old[i].key == key {
			backwardShift(t.old, t.oldMask, i)
			return true
		}
	}
	return false
}

// backwardShift closes the hole at i by walking the probe chain forward and
// pulling back every entry whose home slot precedes the hole, preserving
// the linear-probe invariant without tombstones.
func backwardShift(slots []rowSlot, mask, i uint64) {
	for {
		slots[i] = rowSlot{}
		j := i
		for {
			j = (j + 1) & mask
			if slots[j].key == 0 {
				return
			}
			home := mixRow(slots[j].key) & mask
			// slots[j] may move into the hole iff the hole lies within
			// [home, j] cyclically.
			if ((j - home) & mask) >= ((j - i) & mask) {
				slots[i] = slots[j]
				i = j
				break
			}
		}
	}
}

// grow starts an incremental rehash into a doubled slot array.
func (t *openRowTable) grow() {
	t.old = t.slots
	t.oldMask = t.mask
	t.oldN = t.n
	t.sweep = 0
	t.slots = make([]rowSlot, len(t.old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.n = 0
	t.rehashes++
}

// migrate drains up to `runs` probe runs from the old array into the new
// one. Whole maximal runs move at once: probe chains never cross an empty
// slot, so lifting a full run leaves the old array's remaining chains
// intact with no backward-shift bookkeeping.
func (t *openRowTable) migrate(runs int) {
	if t.old == nil {
		return
	}
	oldLen := uint64(len(t.old))
	for runs > 0 && t.old != nil {
		if t.oldN == 0 {
			t.old = nil
			return
		}
		if t.sweep >= oldLen {
			// A wrapped chain can park entries below a hole the sweep
			// already passed; restart — oldN strictly decreases per
			// migrated run, so this terminates.
			t.sweep = 0
		}
		if t.old[t.sweep].key == 0 {
			t.sweep++
			continue
		}
		if t.sweep == 0 && t.old[oldLen-1].key != 0 {
			// The run at index 0 is the wrapped tail of the run ending at
			// the last slot; skip it here so that run moves whole when the
			// sweep reaches its head.
			for t.sweep < oldLen && t.old[t.sweep].key != 0 {
				t.sweep++
			}
			continue
		}
		// Lift the maximal run starting at sweep (it may wrap).
		for i := t.sweep; t.old[i].key != 0; i = (i + 1) & t.oldMask {
			t.insertNew(t.old[i].key, t.old[i].ts)
			t.old[i] = rowSlot{}
			t.oldN--
		}
		runs--
	}
	if t.oldN == 0 {
		t.old = nil
	}
}

// insertNew inserts into the new array only (migration path; the key is
// known absent there).
func (t *openRowTable) insertNew(key RowID, ts uint64) {
	i := mixRow(key) & t.mask
	for t.slots[i].key != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = rowSlot{key: key, ts: ts}
	t.n++
}

// forEach visits every live (key, timestamp) pair in unspecified order.
func (t *openRowTable) forEach(fn func(key RowID, ts uint64)) {
	if t.zeroSet {
		fn(0, t.zeroTS)
	}
	for i := range t.slots {
		if t.slots[i].key != 0 {
			fn(t.slots[i].key, t.slots[i].ts)
		}
	}
	if t.old != nil {
		for i := range t.old {
			if t.old[i].key != 0 {
				fn(t.old[i].key, t.old[i].ts)
			}
		}
	}
}

// slotCount returns the allocated slot count across both arrays (load
// accounting for Stats.TableLoadFactor).
func (t *openRowTable) slotCount() int {
	n := len(t.slots)
	if t.old != nil {
		n += len(t.old)
	}
	return n
}
