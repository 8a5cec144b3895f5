package partition

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/oracle"
)

// RangeMap is the elastic router: an arbitrary assignment of contiguous
// key ranges to partitions. Unlike RangeRouter, whose n-1 split points pin
// partition i to the i-th slice, a RangeMap carries an explicit owner per
// segment — so a rebalance can carve a hot sub-range off partition 0 and
// hand it to partition 3 without renumbering anything. Segment i covers
// [splits[i-1], splits[i]) (segment 0 starts at 0, the last segment is
// unbounded above) and is owned by owners[i].
//
// RangeMaps are immutable: WithMove returns a new map, and the coordinator
// swaps the whole routing table under its epoch fence.
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

// NewSingleOwnerRangeMap maps the whole row-id space to one owner — the
// elastic deployment's cold start, before the rebalancer has observed any
// load.
func NewSingleOwnerRangeMap(parts, owner int) (*RangeMap, error) {
	return NewRangeMap(nil, []int{owner}, parts)
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

// Segments returns the number of contiguous ranges in the map.
func (m *RangeMap) Segments() int { return len(m.owners) }

// ownedRange is one contiguous slice of the key space and its owner; hi ==
// 0 means the end of the space.
type ownedRange struct {
	lo, hi uint64
	owner  int
}

// rangesIn returns the segments overlapping [lo, hi) (hi == 0 means end of
// space), clipped to it.
func (m *RangeMap) rangesIn(lo, hi uint64) []ownedRange {
	var out []ownedRange
	segLo := uint64(0)
	for i := range m.owners {
		segHi := uint64(0)
		if i < len(m.splits) {
			segHi = m.splits[i]
		}
		// Overlap of [segLo, segHi) and [lo, hi) under the hi==0 sentinel.
		oLo := segLo
		if lo > oLo {
			oLo = lo
		}
		oHi := segHi
		if segHi == 0 || (hi != 0 && hi < segHi) {
			oHi = hi
		}
		if oHi == 0 || oLo < oHi {
			out = append(out, ownedRange{lo: oLo, hi: oHi, owner: m.owners[i]})
		}
		if segHi == 0 {
			break
		}
		if hi != 0 && segHi >= hi {
			break
		}
		segLo = segHi
	}
	return out
}

// WithMove returns a new map in which [lo, hi) (hi == 0 means end of
// space) is owned by to, leaving every other range unchanged.
func (m *RangeMap) WithMove(lo, hi uint64, to int) (*RangeMap, error) {
	if to < 0 || to >= m.parts {
		return nil, fmt.Errorf("partition: move target %d out of range [0,%d)", to, m.parts)
	}
	if hi != 0 && hi <= lo {
		return nil, fmt.Errorf("partition: empty move range [%d,%d)", lo, hi)
	}
	// Rebuild the segment list with the moved range carved out. rangesIn
	// treats hi == 0 as end-of-space, so the prefix query is issued only
	// when the prefix is non-empty.
	var segs []ownedRange
	if lo > 0 {
		segs = append(segs, m.rangesIn(0, lo)...)
	}
	segs = append(segs, ownedRange{lo: lo, hi: hi, owner: to})
	if hi != 0 {
		for _, s := range m.rangesIn(hi, 0) {
			segs = append(segs, s)
		}
	}
	splits := make([]uint64, 0, len(segs)-1)
	owners := make([]int, 0, len(segs))
	for i, s := range segs {
		owners = append(owners, s.owner)
		if i < len(segs)-1 {
			splits = append(splits, s.hi)
		}
	}
	return NewRangeMap(splits, owners, m.parts)
}

// Spec renders the map in the flag/wire syntax ParseRouter accepts:
// "map:<parts>;o0,o1,...;s1,s2,..." (owners per segment, then the segment
// boundaries; a single-segment map has no boundary list).
func (m *RangeMap) Spec() string {
	var b strings.Builder
	fmt.Fprintf(&b, "map:%d;", m.parts)
	for i, o := range m.owners {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(o))
	}
	b.WriteByte(';')
	for i, s := range m.splits {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(s, 10))
	}
	return b.String()
}

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

// RouterSpec renders any built-in router in the syntax ParseRouter accepts;
// the epoch-aware redirect carries it so a stale client can adopt the
// server's routing table without an out-of-band channel.
func RouterSpec(r Router) string {
	switch rt := r.(type) {
	case *RangeMap:
		return rt.Spec()
	case RangeRouter:
		if len(rt.splits) == 0 {
			return "range:"
		}
		ss := make([]string, len(rt.splits))
		for i, s := range rt.splits {
			ss[i] = strconv.FormatUint(s, 10)
		}
		return "range:" + strings.Join(ss, ",")
	default:
		return "hash"
	}
}

// RoutingTable is a router under an epoch fence. Epochs are strictly
// increasing across rebalances; every component (coordinator, partition
// servers, clients) adopts a table only when its epoch exceeds the one it
// holds, so a delayed or replayed older table can never roll routing back.
type RoutingTable struct {
	Epoch  uint64
	Router Router
}

// Newer reports whether t should supersede o under the epoch fence.
func (t RoutingTable) Newer(o RoutingTable) bool { return t.Epoch > o.Epoch }

// Spec renders the table's router for the wire.
func (t RoutingTable) Spec() string { return RouterSpec(t.Router) }

// MisrouteError reports a request that carried rows the receiving
// partition does not own under its current routing table. It carries the
// server's epoch and router spec so the caller can refresh its table and
// retry, instead of surfacing the error.
type MisrouteError struct {
	Epoch uint64
	Spec  string
}

func (e *MisrouteError) Error() string {
	return fmt.Sprintf("partition: misrouted request (server routing epoch %d)", e.Epoch)
}

// AsMisroute unwraps a misroute error, if err carries one.
func AsMisroute(err error) *MisrouteError {
	for err != nil {
		if mr, ok := err.(*MisrouteError); ok {
			return mr
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil
		}
		err = u.Unwrap()
	}
	return nil
}
