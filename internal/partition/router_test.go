package partition

import (
	"strconv"
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

// TestRangeMapSpecRoutes: a "map:" spec gives each segment its owner, and a
// partition may own several non-adjacent segments.
func TestRangeMapSpecRoutes(t *testing.T) {
	r, err := ParseRouter("map:4;0,3,1,0,2;100,150,200,1000", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		row  oracle.RowID
		want int
	}{{0, 0}, {99, 0}, {100, 3}, {149, 3}, {150, 1}, {199, 1}, {200, 0}, {999, 0}, {1000, 2}, {1 << 50, 2}} {
		if p := r.Partition(tc.row); p != tc.want {
			t.Fatalf("route %d -> %d, want %d (%v)", tc.row, p, tc.want, r)
		}
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
