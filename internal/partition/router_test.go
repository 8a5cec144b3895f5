package partition

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/oracle"
)

func TestParseRouterEdgeCases(t *testing.T) {
	// Empty and "hash" specs are the hash default.
	for _, spec := range []string{"", "hash"} {
		r, err := ParseRouter(spec, 3)
		if err != nil {
			t.Fatalf("ParseRouter(%q): %v", spec, err)
		}
		if _, ok := r.(HashRouter); !ok || r.Partitions() != 3 {
			t.Fatalf("ParseRouter(%q) = %T over %d", spec, r, r.Partitions())
		}
	}
	// "range:" with no splits is the single-partition range router.
	r, err := ParseRouter("range:", 1)
	if err != nil {
		t.Fatalf("range: single partition: %v", err)
	}
	if r.Partitions() != 1 || r.Partition(oracle.RowID(1<<40)) != 0 {
		t.Fatalf("empty-split range router = %v", r)
	}
	// Whitespace and trailing commas are tolerated.
	if _, err := ParseRouter("range: 100 , 200 ,", 3); err != nil {
		t.Fatalf("spaced splits rejected: %v", err)
	}

	bad := []struct {
		spec string
		n    int
	}{
		{"range:100,100", 3},     // duplicate split
		{"range:200,100", 3},     // descending
		{"range:100,200", 4},     // splits describe 3 partitions, not 4
		{"range:abc", 2},         // non-numeric
		{"map:2;0,1", 2},         // missing splits field
		{"map:x;0;", 1},          // bad partition count
		{"map:2;0,5;100", 2},     // owner out of range
		{"map:2;0,1,0;100", 2},   // owners/splits arity mismatch
		{"map:2;0,1;200,100", 2}, // descending map splits
		{"map:4;0,1;100", 2},     // covers 4 partitions, want 2
		{"rangemap:0", 1},        // unknown scheme
	}
	for _, tc := range bad {
		if _, err := ParseRouter(tc.spec, tc.n); err == nil {
			t.Errorf("ParseRouter(%q, %d) accepted", tc.spec, tc.n)
		}
	}
}

func TestRangeMapMoveAndSpec(t *testing.T) {
	m, err := NewSingleOwnerRangeMap(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Carve an interior range out to partition 3, then its tail to 1.
	m, err = m.WithMove(100, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err = m.WithMove(150, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Re-moving an open-ended tail works too.
	m, err = m.WithMove(1000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		row  oracle.RowID
		want int
	}{{0, 0}, {99, 0}, {100, 3}, {149, 3}, {150, 1}, {199, 1}, {200, 0}, {999, 0}, {1000, 2}, {1 << 50, 2}} {
		if p := m.Partition(tc.row); p != tc.want {
			t.Fatalf("route %d -> %d, want %d (map %s)", tc.row, p, tc.want, m.Spec())
		}
	}

	// The spec round-trips through ParseRouter to an identical routing
	// function — this is what epoch redirects carry on the wire.
	spec := m.Spec()
	if !strings.HasPrefix(spec, "map:4;") {
		t.Fatalf("spec = %q", spec)
	}
	r2, err := ParseRouter(spec, 4)
	if err != nil {
		t.Fatalf("reparse %q: %v", spec, err)
	}
	for row := oracle.RowID(0); row < 2000; row++ {
		if m.Partition(row) != r2.Partition(row) {
			t.Fatalf("spec round trip diverges at row %d", row)
		}
	}

	// Moving a range back to its surrounding owner coalesces segments.
	m2, err := m.WithMove(100, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Segments() != 2 { // [0,1000)->0, [1000,∞)->2
		t.Fatalf("coalesced map has %d segments (%s)", m2.Segments(), m2.Spec())
	}

	// Invalid moves are rejected.
	if _, err := m.WithMove(100, 200, 4); err == nil {
		t.Fatal("move to out-of-range partition accepted")
	}
	if _, err := m.WithMove(200, 100, 1); err == nil {
		t.Fatal("empty move range accepted")
	}
}

func TestRoutingTableEpochFence(t *testing.T) {
	old := RoutingTable{Epoch: 3, Router: NewHashRouter(2)}
	newer := RoutingTable{Epoch: 4, Router: NewHashRouter(2)}
	if !newer.Newer(old) {
		t.Fatal("higher epoch not newer")
	}
	if old.Newer(newer) || old.Newer(old) {
		t.Fatal("stale or equal epoch considered newer")
	}
	if old.Spec() != "hash" {
		t.Fatalf("hash table spec = %q", old.Spec())
	}

	m, _ := NewSingleOwnerRangeMap(2, 1)
	rt := RoutingTable{Epoch: 9, Router: m}
	r, err := ParseRouter(rt.Spec(), 2)
	if err != nil {
		t.Fatalf("reparse table spec %q: %v", rt.Spec(), err)
	}
	if r.Partition(12345) != 1 {
		t.Fatal("table spec lost the owner assignment")
	}
}

// TestDefaultRouterSpreadsHashedKeys pins why hash is the default router:
// oracle.HashRow is FNV-1a, so keys that differ only in their last bytes
// differ mostly in their low bits. A modulo spreads "k0".."k999" evenly over
// four partitions; even ranges over the row-id space put 100, 300, 600 and
// 0 of them on the four.
func TestDefaultRouterSpreadsHashedKeys(t *testing.T) {
	def, err := ParseRouter("", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Router{def, NewHashRouter(4)} {
		counts := make([]int, 4)
		for i := 0; i < 1000; i++ {
			counts[r.Partition(oracle.HashRow("k"+strconv.Itoa(i)))]++
		}
		for p, n := range counts {
			if n < 225 || n > 275 {
				t.Fatalf("%v puts %d of 1000 hashed keys on partition %d (all: %v), want 250 ± 25", r, n, p, counts)
			}
		}
	}
}
