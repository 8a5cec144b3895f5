// Package partition implements the horizontally partitioned status oracle
// the paper sketches in §7: because write-snapshot isolation's read-write
// conflict check decomposes per key — row r's check consults only row r's
// last-commit timestamp — the status oracle's state can be sliced across N
// independent partitions, each a full oracle.StatusOracle with its own
// write-ahead log, behind a Coordinator that preserves the single-oracle
// commit semantics.
//
// A transaction whose read/write set lives on one partition commits through
// that partition's existing one-shot batched commit path. A transaction
// spanning several partitions commits in two phases: the Coordinator
// pre-allocates its commit timestamp from the shared timestamp oracle,
// fans out Prepare (the conflict check on each partition's slice, parking
// the slice's rows until the verdict), ANDs the votes, records the
// decision in its durable decision log, and fans out Decide. Readers
// resolve a transaction's fate through the Coordinator's merged status
// query — committed as soon as any covering partition has published — so
// no snapshot ever observes a half-decided transaction, and an Omid-style
// begin barrier holds each new start timestamp until every commit
// timestamp allocated below it has been fully published.
package partition

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/oracle"
)

// Router maps rows to status-oracle partitions. Implementations must be
// pure functions of the row id so that every client and the coordinator
// agree on ownership.
type Router interface {
	// Partition returns the index of the partition owning row r.
	Partition(r oracle.RowID) int
	// Partitions returns the partition count.
	Partitions() int
}

// HashRouter slices the row-id space by modulo: uniform load regardless of
// key distribution, at the cost of scattering every multi-row transaction
// across partitions. The default.
type HashRouter struct {
	n int
}

// NewHashRouter returns a hash router over n partitions.
func NewHashRouter(n int) HashRouter {
	if n <= 0 {
		n = 1
	}
	return HashRouter{n: n}
}

// Partition implements Router.
func (h HashRouter) Partition(r oracle.RowID) int { return int(uint64(r) % uint64(h.n)) }

// Partitions implements Router.
func (h HashRouter) Partitions() int { return h.n }

func (h HashRouter) String() string { return fmt.Sprintf("hash(%d)", h.n) }

// RangeRouter slices the row-id space into contiguous ranges: partition 0
// owns [0, splits[0]), partition i owns [splits[i-1], splits[i]), and the
// last partition owns [splits[n-2], 2^64). Range slicing keeps workloads
// with locality (and the benchmark's dense row indexes) mostly
// single-partition, and the split points can be rebalanced without
// remapping the whole space.
type RangeRouter struct {
	splits []uint64 // ascending lower bounds of partitions 1..n-1
}

// NewRangeRouter builds a range router from the ascending lower bounds of
// partitions 1..n-1 (so len(splits)+1 partitions).
func NewRangeRouter(splits []uint64) (RangeRouter, error) {
	for i := 1; i < len(splits); i++ {
		if splits[i] <= splits[i-1] {
			return RangeRouter{}, fmt.Errorf("partition: range splits must be strictly ascending, got %d after %d", splits[i], splits[i-1])
		}
	}
	return RangeRouter{splits: append([]uint64(nil), splits...)}, nil
}

// NewEvenRangeRouter splits [0, space) into n equal slices. The benchmark
// uses it with space = the workload's row count, since its row ids are the
// dense record indexes themselves.
func NewEvenRangeRouter(n int, space uint64) RangeRouter {
	if n <= 1 {
		return RangeRouter{}
	}
	splits := make([]uint64, n-1)
	for i := range splits {
		splits[i] = uint64(i+1) * (space / uint64(n))
	}
	r, _ := NewRangeRouter(splits)
	return r
}

// Partition implements Router.
func (rr RangeRouter) Partition(r oracle.RowID) int {
	return sort.Search(len(rr.splits), func(i int) bool { return uint64(r) < rr.splits[i] })
}

// Partitions implements Router.
func (rr RangeRouter) Partitions() int { return len(rr.splits) + 1 }

func (rr RangeRouter) String() string { return fmt.Sprintf("range(%d)", rr.Partitions()) }

// ParseRouter builds a router from a flag-style spec for n partitions:
// "hash" (the default), "range" (even slices over the full 64-bit row-id
// space), "range:s1,s2,..." with explicit ascending split points ("range:"
// with no splits is the single-partition range router), or
// "map:<parts>;o0,o1,...;s1,s2,..." — an elastic RangeMap with explicit
// per-segment owners, the syntax RoutingTable redirects carry.
func ParseRouter(spec string, n int) (Router, error) {
	switch {
	case spec == "" || spec == "hash":
		return NewHashRouter(n), nil
	case spec == "range":
		return NewEvenRangeRouter(n, ^uint64(0)), nil
	case strings.HasPrefix(spec, "range:"):
		var splits []uint64
		for _, p := range strings.Split(strings.TrimPrefix(spec, "range:"), ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			v, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("partition: bad range split %q: %w", p, err)
			}
			splits = append(splits, v)
		}
		rr, err := NewRangeRouter(splits)
		if err != nil {
			return nil, err
		}
		if rr.Partitions() != n {
			return nil, fmt.Errorf("partition: %d range splits describe %d partitions, want %d", len(splits), rr.Partitions(), n)
		}
		return rr, nil
	case strings.HasPrefix(spec, "map:"):
		m, err := parseRangeMapSpec(spec)
		if err != nil {
			return nil, err
		}
		if m.Partitions() != n {
			return nil, fmt.Errorf("partition: range map covers %d partitions, want %d", m.Partitions(), n)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("partition: unknown router spec %q (want hash, range, range:s1,s2,..., or map:...)", spec)
	}
}
