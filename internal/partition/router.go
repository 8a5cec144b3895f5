// Package partition implements the horizontally partitioned status oracle
// the paper sketches in §7: because write-snapshot isolation's read-write
// conflict check decomposes per key — row r's check consults only row r's
// last-commit timestamp — the status oracle's state can be sliced across N
// independent partitions, each a full oracle.StatusOracle with its own
// write-ahead log, behind a Coordinator that preserves the single-oracle
// commit semantics.
//
// A transaction spanning several partitions commits in two phases: the
// Coordinator fans out Prepare (the conflict check on each partition's
// slice, parking the slice's rows until the verdict) and ANDs the votes.
// Only then does it draw the commit timestamps from the shared clock, and
// inside the clock's critical section it publishes the verdicts to its
// decision log; it persists them there and fans out Decide. So every
// transaction is checked against every commit below its commit timestamp,
// and every snapshot issued above a commit timestamp can already resolve
// that commit. Readers resolve a transaction's fate through the
// Coordinator's merged status query — committed as soon as any covering
// partition has published, else the decision log's verdict — so no
// snapshot ever observes a half-decided transaction. A single-partition
// transaction takes its partition's one-shot CommitBatch when the
// partitions share the coordinator's timestamp oracle in-process, and the
// same two phases otherwise.
package partition

import (
	"fmt"
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
// across partitions. The default, because oracle.HashRow is FNV-1a and keys
// that differ only in their last bytes differ mostly in their low bits, which
// a modulo spreads evenly and contiguous ranges do not.
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

// NewEvenRangeRouter splits [0, space) into n equal slices, partition i
// owning slice i and the last also everything above. The benchmark uses it
// with space = the workload's row count, since its row ids are the dense
// record indexes themselves. The slice width is at least one row, so
// n > space still yields n slices.
func NewEvenRangeRouter(n int, space uint64) *RangeMap {
	n = max(n, 1)
	width := max(space/uint64(n), 1)
	splits := make([]uint64, n-1)
	for i := range splits {
		splits[i] = uint64(i+1) * width
	}
	m, _ := newSlicedRangeMap(splits)
	return m
}

// newSlicedRangeMap builds the range map in which partition i owns the i-th
// of the len(splits)+1 ranges the ascending splits cut.
func newSlicedRangeMap(splits []uint64) (*RangeMap, error) {
	owners := make([]int, len(splits)+1)
	for i := range owners {
		owners[i] = i
	}
	return NewRangeMap(splits, owners, len(owners))
}

// ParseRouter builds a router from a flag-style spec for n partitions:
// "hash" (the default), "range" (even slices over the full 64-bit row-id
// space), "range:s1,s2,..." with explicit ascending split points, partition
// i owning the i-th range ("range:" with no splits is the single-partition
// range router), or "map:<parts>;o0,o1,...;s1,s2,..." with explicit
// per-segment owners. Every range spec builds a RangeMap.
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
		if len(splits)+1 != n {
			return nil, fmt.Errorf("partition: %d range splits describe %d partitions, want %d", len(splits), len(splits)+1, n)
		}
		return newSlicedRangeMap(splits)
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
