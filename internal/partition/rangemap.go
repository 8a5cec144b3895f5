package partition

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/oracle"
)

// RangeMap is the range router: an arbitrary assignment of contiguous key
// ranges to partitions. Range slicing keeps workloads with locality (and the
// benchmark's dense row indexes) mostly single-partition. A RangeMap carries
// an explicit owner per segment, so one partition may own several
// non-adjacent ranges. Segment i covers [splits[i-1], splits[i]) (segment 0
// starts at 0, the last segment is unbounded above) and is owned by
// owners[i]. RangeMaps are immutable.
type RangeMap struct {
	splits []uint64 // ascending segment boundaries; len(owners) == len(splits)+1
	owners []int
	parts  int // partition count (owners reference [0, parts))
}

// NewRangeMap builds a range map from ascending segment boundaries and the
// per-segment owners (len(owners) == len(splits)+1), over parts partitions.
func NewRangeMap(splits []uint64, owners []int, parts int) (*RangeMap, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("partition: range map needs parts > 0, got %d", parts)
	}
	if len(owners) != len(splits)+1 {
		return nil, fmt.Errorf("partition: range map needs %d owners for %d splits, got %d",
			len(splits)+1, len(splits), len(owners))
	}
	for i := 1; i < len(splits); i++ {
		if splits[i] <= splits[i-1] {
			return nil, fmt.Errorf("partition: range map splits must be strictly ascending, got %d after %d",
				splits[i], splits[i-1])
		}
	}
	for _, o := range owners {
		if o < 0 || o >= parts {
			return nil, fmt.Errorf("partition: range map owner %d out of range [0,%d)", o, parts)
		}
	}
	m := &RangeMap{
		splits: append([]uint64(nil), splits...),
		owners: append([]int(nil), owners...),
		parts:  parts,
	}
	m.coalesce()
	return m, nil
}

// coalesce merges adjacent segments with the same owner.
func (m *RangeMap) coalesce() {
	if len(m.splits) == 0 {
		return
	}
	outS := m.splits[:0]
	outO := m.owners[:1]
	for i := 0; i < len(m.splits); i++ {
		if m.owners[i+1] == outO[len(outO)-1] {
			continue
		}
		outS = append(outS, m.splits[i])
		outO = append(outO, m.owners[i+1])
	}
	m.splits = outS
	m.owners = outO
}

// Partition implements Router.
func (m *RangeMap) Partition(r oracle.RowID) int {
	i := sort.Search(len(m.splits), func(i int) bool { return uint64(r) < m.splits[i] })
	return m.owners[i]
}

// Partitions implements Router.
func (m *RangeMap) Partitions() int { return m.parts }

func (m *RangeMap) String() string {
	return fmt.Sprintf("rangemap(%d parts, %d segments)", m.parts, len(m.owners))
}

// parseRangeMapSpec parses the "map:..." syntax (without validating against
// an expected partition count; ParseRouter does that).
func parseRangeMapSpec(spec string) (*RangeMap, error) {
	body := strings.TrimPrefix(spec, "map:")
	fields := strings.Split(body, ";")
	if len(fields) != 3 {
		return nil, fmt.Errorf("partition: bad range-map spec %q (want map:<parts>;owners;splits)", spec)
	}
	parts, err := strconv.Atoi(strings.TrimSpace(fields[0]))
	if err != nil {
		return nil, fmt.Errorf("partition: bad range-map partition count %q: %w", fields[0], err)
	}
	var owners []int
	for _, f := range strings.Split(fields[1], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		o, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("partition: bad range-map owner %q: %w", f, err)
		}
		owners = append(owners, o)
	}
	var splits []uint64
	for _, f := range strings.Split(fields[2], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("partition: bad range-map split %q: %w", f, err)
		}
		splits = append(splits, v)
	}
	return NewRangeMap(splits, owners, parts)
}
