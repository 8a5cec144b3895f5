package txn

import (
	"sync"

	"repro/internal/kvstore"
	"repro/internal/oracle"
)

// Garbage collection and time-travel reads.

// activeSet tracks the start timestamps of this client's live transactions
// so GC can compute a safe low-water mark.
type activeSet struct {
	mu sync.Mutex
	m  map[uint64]struct{}
}

func (a *activeSet) add(ts uint64) {
	a.mu.Lock()
	if a.m == nil {
		a.m = make(map[uint64]struct{})
	}
	a.m[ts] = struct{}{}
	a.mu.Unlock()
}

func (a *activeSet) remove(ts uint64) {
	a.mu.Lock()
	delete(a.m, ts)
	a.mu.Unlock()
}

// min returns the smallest active start timestamp, ok=false when none.
func (a *activeSet) min() (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var best uint64
	ok := false
	for ts := range a.m {
		if !ok || ts < best {
			best = ts
			ok = true
		}
	}
	return best, ok
}

// resolverForGC adapts the client's commit-status resolution to the
// store's collector interface. The collector calls it under the store's
// lock, for unstamped versions only; resolve never touches the store.
func (c *Client) resolverForGC() kvstore.Resolver {
	return func(_ string, writeTS uint64) (uint64, kvstore.GCStatus) {
		st := c.resolve(writeTS)
		switch st.Status {
		case oracle.StatusCommitted:
			return st.CommitTS, kvstore.GCCommitted
		case oracle.StatusAborted:
			return 0, kvstore.GCAborted
		default:
			// Pending and unknown versions are conservatively kept
			// (write-back mode has already read unknown as aborted).
			return 0, kvstore.GCPending
		}
	}
}

// GCAt prunes store versions unobservable by any snapshot at or above
// lowWater. The caller guarantees no live or future transaction holds a
// start timestamp below lowWater (for multi-client deployments that
// watermark must be agreed externally, e.g. via the status oracle's
// timestamp stream). Returns the number of versions reclaimed.
func (c *Client) GCAt(lowWater uint64) int {
	return c.store.CompactBefore(lowWater, c.resolverForGC())
}

// GC prunes using this client's own live transactions to derive the
// watermark: the minimum active start timestamp, or — when idle — a fresh
// timestamp from the oracle (every future transaction starts above it).
// Safe for single-client deployments only, and not concurrently with Begin
// on this client: a transaction that has its start timestamp but is not yet
// registered is invisible to the watermark. Callers that race Begin with
// collection, or run several clients, use GCAt with an external watermark.
func (c *Client) GC() (int, error) {
	low, ok := c.active.min()
	if !ok {
		ts, err := c.so.Begin()
		if err != nil {
			return 0, err
		}
		low = ts
	}
	return c.GCAt(low), nil
}

// BeginAt starts a read-only, time-travel transaction whose snapshot is
// the given timestamp: it observes exactly the commits with commit
// timestamp below ts. Writes are rejected (commit of a non-empty write set
// would violate the timestamp protocol). Because read-only transactions
// are never checked for conflicts (§4.1 condition 3), reading an old
// snapshot is always safe — but note that GC may have pruned versions
// below its watermark, so callers coordinate time-travel depth with their
// GC policy.
func (c *Client) BeginAt(ts uint64) *Txn {
	t := &Txn{
		client:   c,
		startTS:  ts,
		writes:   nil, // nil write map marks the transaction read-only
		readOnly: true,
	}
	return t
}
