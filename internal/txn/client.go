// Package txn is the client-side transaction library (§2.2, §5): it runs
// transactions against the multi-version store and the status oracle.
//
// A transaction receives a start timestamp, reads from the snapshot that
// timestamp defines, buffers nothing — tentative writes go straight to the
// store versioned by the start timestamp, exactly as in the paper's
// lock-free scheme — and finally submits its write set (and, under WSI, its
// read set) to the status oracle, which decides commit or abort.
//
// To decide whether a version it encounters is visible, a reader must learn
// the commit status of the writing transaction. The paper lists three
// options (§2.2): query the status oracle, write commit timestamps back
// into the database, or replicate commit timestamps on the clients. The
// paper's experiments replicated; here the stamped store is the replica:
// whoever learns that a version's writer committed stamps the commit
// timestamp on the version itself (kvstore.Store.StampCommits), in every
// mode, so a version's fate is looked up once — not once per reader. A
// version nobody has stamped yet is asked of the oracle; CommitInfoMode
// only chooses how an unknown answer is read.
package txn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/oracle"
)

// Arbiter is the status-oracle interface the client depends on; it is
// satisfied by *oracle.StatusOracle directly and by the network client in
// internal/netsrv.
type Arbiter interface {
	Begin() (uint64, error)
	Commit(oracle.CommitRequest) (oracle.CommitResult, error)
	Abort(startTS uint64) error
	Query(startTS uint64) oracle.TxnStatus
}

// BatchQuerier is implemented by arbiters that can resolve many status
// lookups in one call (*oracle.StatusOracle in-process, *netsrv.Client over
// the wire — one frame instead of one per lookup). The read path batches
// through it when available and falls back to serial Query calls otherwise.
type BatchQuerier interface {
	QueryBatch(startTSs []uint64) []oracle.TxnStatus
}

// Forgetting is implemented by arbiters that support garbage-collecting
// aborted-transaction records after client cleanup.
type Forgetting interface {
	Forget(startTS uint64)
}

// StatusResolver is implemented by arbiters whose status lookups can
// report transport failure (netsrv.Client after a connection loss or
// failover). The commit path uses it to settle in-doubt commits: when a
// commit submission fails with an infrastructure error, the decision may
// or may not have landed, so the client asks for the transaction's status
// — on the reconnected, possibly newly promoted server — instead of ever
// resubmitting the request (a blind resubmit could commit twice). Arbiters
// without it are in-process, where Query is authoritative.
type StatusResolver interface {
	ResolveStatus(startTS uint64) (oracle.TxnStatus, error)
}

// StatusResolverCtx is the context-aware refinement of StatusResolver
// (netsrv.Client implements both): the resolver honors the context's
// deadline across server-side parking and client-side reconnection
// backoff. With Config.SettleTimeout set, the commit path settles in-doubt
// commits through it so a group election in progress cannot block a commit
// caller longer than the configured bound.
type StatusResolverCtx interface {
	ResolveStatusCtx(ctx context.Context, startTS uint64) (oracle.TxnStatus, error)
}

// CommitInfoMode selects how readers resolve the commit timestamps of
// versions nobody has stamped yet (§2.2). Stamped versions need no mode.
type CommitInfoMode uint8

// Commit-info modes.
const (
	// ModeQuery asks the status oracle.
	ModeQuery CommitInfoMode = iota
	// ModeWriteBack asks the status oracle, and additionally has every
	// committer stamp its own write set at ack, which lets it read an
	// unknown (evicted) writer with no stamp as aborted. It is the only
	// sound mode over a bounded commit table (oracle.Config.MaxCommits > 0),
	// where ModeQuery would skip an acked commit whose writer was evicted;
	// core derives it from MaxCommits.
	ModeWriteBack
)

func (m CommitInfoMode) String() string {
	switch m {
	case ModeQuery:
		return "query"
	case ModeWriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("CommitInfoMode(%d)", uint8(m))
	}
}

// Errors returned by the transaction layer.
var (
	// ErrConflict reports that the status oracle aborted the commit.
	ErrConflict = errors.New("txn: conflict abort")
	// ErrClosed reports use of a finished transaction.
	ErrClosed = errors.New("txn: transaction already committed or aborted")
	// ErrReadOnly reports a write attempted on a BeginAt transaction.
	ErrReadOnly = errors.New("txn: time-travel transactions are read-only")
)

// errReadOnly aliases the exported error for internal call sites.
var errReadOnly = ErrReadOnly

// Config parameterizes a client.
type Config struct {
	// Mode selects the commit-info resolution strategy.
	Mode CommitInfoMode
	// Bucketer, when non-nil, enables the §5.2 analytics extension:
	// writers additionally publish the bucket of every written row, and
	// scans may submit compact bucket-level read sets instead of
	// enumerating rows.
	Bucketer Bucketer
	// DeferWrites buffers writes client-side and flushes them to the
	// data servers only at commit time, Percolator-style (§2.1), instead
	// of the default eager write-through. Visibility is identical either
	// way — tentative versions are invisible until the oracle commits —
	// but deferral saves data-server traffic for transactions that abort
	// before committing, at the cost of a commit-time write burst.
	DeferWrites bool
	// Tap, when non-nil, receives sampled transaction lifecycle events
	// (begin/read/write/commit/abort) for the streaming anomaly checker.
	// The sampling decision is made once per transaction at Begin; an
	// unsampled transaction pays one atomic load and nothing else.
	Tap *history.Tap
	// SettleTimeout bounds how long a failed commit submission may block
	// in in-doubt settlement (the status lookup against the possibly
	// re-elected oracle). Zero waits as long as the resolver does; it only
	// takes effect with an arbiter implementing StatusResolverCtx. On
	// timeout the transaction stays in doubt and the original submission
	// error surfaces.
	SettleTimeout time.Duration
}

// Client runs transactions. Create one per process; it is safe for
// concurrent use and transactions from the same client may run in parallel.
type Client struct {
	store  *kvstore.Store
	so     Arbiter
	cfg    Config
	active activeSet // live transactions, for GC watermarking
}

// NewClient creates a transaction client.
func NewClient(store *kvstore.Store, so Arbiter, cfg Config) (*Client, error) {
	return &Client{store: store, so: so, cfg: cfg}, nil
}

// Close releases the client. It holds no background resources, so Close
// only exists for callers that pair every client with a Close.
func (c *Client) Close() {}

// Begin starts a transaction.
func (c *Client) Begin() (*Txn, error) {
	ts, err := c.so.Begin()
	if err != nil {
		return nil, err
	}
	c.active.add(ts)
	t := &Txn{
		client:  c,
		startTS: ts,
		writes:  make(map[string][]byte),
	}
	if tap := c.cfg.Tap; tap != nil && tap.Sampled(ts) {
		t.tap = tap
		tap.Record(history.StreamEvent{Kind: history.EvBegin, Start: ts})
	}
	return t, nil
}

// Store returns the underlying store (examples use it for direct loads).
func (c *Client) Store() *kvstore.Store { return c.store }

// resolve is resolveInto for one version (the collector's shape).
func (c *Client) resolve(writeTS uint64) oracle.TxnStatus {
	var out [1]oracle.TxnStatus
	return c.resolveInto([]uint64{writeTS}, out[:0])[0]
}

// resolveScratchPool holds resolveInto's deduplicated lookups.
var resolveScratchPool = sync.Pool{New: func() interface{} { return new([]uint64) }}

// resolveInto determines the commit status of the transactions that wrote
// at writeTSs, one answer each in out's storage (grown if it must be). The
// read path sends it unstamped versions only: one goes to the oracle as a
// direct Query, more as a single QueryBatch round trip, deduplicated (one
// transaction's status answers every row it wrote).
func (c *Client) resolveInto(writeTSs []uint64, out []oracle.TxnStatus) []oracle.TxnStatus {
	out = slices.Grow(out[:0], len(writeTSs))[:len(writeTSs)]
	switch len(writeTSs) {
	case 0:
		return out
	case 1:
		// The common Get shape: a direct query, no dedup bookkeeping, no
		// allocation.
		out[0] = c.applyWriteBackRule(c.so.Query(writeTSs[0]))
		return out
	}
	sc := resolveScratchPool.Get().(*[]uint64)
	defer resolveScratchPool.Put(sc)
	startTSs := append((*sc)[:0], writeTSs...)
	slices.Sort(startTSs)
	startTSs = slices.Compact(startTSs)
	*sc = startTSs
	statuses := c.queryBatch(startTSs)
	for i, ts := range writeTSs {
		j, _ := slices.BinarySearch(startTSs, ts)
		out[i] = c.applyWriteBackRule(statuses[j])
	}
	return out
}

// applyWriteBackRule maps an oracle answer through ModeWriteBack's
// unknown-means-aborted rule: a transaction evicted from the commit table
// whose version carries no stamp never completed its write-back, so its
// client was either never acknowledged or crashed mid-write-back; treating
// the version as invisible is safe (§2.2, Appendix A). ModeQuery passes
// through unchanged.
func (c *Client) applyWriteBackRule(st oracle.TxnStatus) oracle.TxnStatus {
	if c.cfg.Mode == ModeWriteBack && st.Status == oracle.StatusUnknown {
		return oracle.TxnStatus{Status: oracle.StatusAborted}
	}
	return st
}

// queryBatch asks the arbiter for many statuses at once, falling back to
// serial Query calls when the arbiter cannot batch.
func (c *Client) queryBatch(startTSs []uint64) []oracle.TxnStatus {
	if bq, ok := c.so.(BatchQuerier); ok {
		return bq.QueryBatch(startTSs)
	}
	out := make([]oracle.TxnStatus, len(startTSs))
	for i, ts := range startTSs {
		out[i] = c.so.Query(ts)
	}
	return out
}

// forget drops an aborted transaction's oracle record after cleanup.
func (c *Client) forget(startTS uint64) {
	if f, ok := c.so.(Forgetting); ok {
		f.Forget(startTS)
	}
}

// resolveFate determines a transaction's fate after a failed commit
// submission. ok is false when no authoritative answer could be obtained
// (the transaction stays in doubt).
func (c *Client) resolveFate(startTS uint64) (oracle.TxnStatus, bool) {
	if rc, isCtx := c.so.(StatusResolverCtx); isCtx && c.cfg.SettleTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.SettleTimeout)
		defer cancel()
		st, err := rc.ResolveStatusCtx(ctx, startTS)
		return st, err == nil
	}
	if r, isResolver := c.so.(StatusResolver); isResolver {
		st, err := r.ResolveStatus(startTS)
		return st, err == nil
	}
	// In-process arbiters answer authoritatively and never fail.
	return c.so.Query(startTS), true
}
