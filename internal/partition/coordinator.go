package partition

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Engine must match the partitions' conflict-detection engine; the
	// coordinator needs its rule (oracle.Engine.Rows) to know which rows a
	// transaction's conflict check covers when slicing requests across
	// partitions.
	Engine oracle.Engine
	// Router maps rows to partitions. Defaults to hash routing.
	Router Router
	// Backends are the partitions, indexed as the Router numbers them.
	Backends []Backend
	// Clock is the shared timestamp authority.
	Clock Clock
	// SharedTSO marks the backends as in-process oracles built on Clock's
	// own timestamp oracle: single-partition transactions then go through
	// the partition's existing CommitBatch fast path, which allocates and
	// publishes commit timestamps atomically. When false (remote
	// partitions), the coordinator pre-allocates commit timestamps and
	// uses the one-shot CommitAtBatch path instead.
	SharedTSO bool
	// DecisionLog records two-phase verdicts; nil creates an in-memory
	// log (no coordinator-crash durability).
	DecisionLog *DecisionLog
	// AsyncDecide acknowledges a cross-partition commit as soon as its
	// verdict is recorded (shared mode: published in the timestamp
	// oracle's critical section and appended to the decision log), fanning
	// the decides out in the background: the ack no longer pays the decide
	// round trip, readers resolve the window through the decision log, and
	// a crashed partition recovers the commit from its in-doubt prepare
	// plus the log. The cost is that prepared-row locks are held a little
	// longer (slightly more pessimistic aborts) and partition state lags
	// the ack by one fan-out — call DrainDecides before inspecting
	// partitions directly.
	AsyncDecide bool
}

// Stats aggregates the coordinator's own counters with a snapshot of every
// partition's oracle counters.
type Stats struct {
	// Begins counts start timestamps issued through the coordinator.
	Begins int64
	// SingleTxns and CrossTxns split the write transactions the
	// coordinator routed by whether their row sets spanned one partition
	// or several; CrossCommits/CrossAborts are the two-phase verdicts.
	SingleTxns   int64
	CrossTxns    int64
	CrossCommits int64
	CrossAborts  int64
	// ExpiredDecides counts cross-partition rounds released early at the
	// decide-wait because the caller's deadline had passed (the fan-out
	// completed in the background).
	ExpiredDecides int64
	// RoutingEpoch is the current routing-table epoch; Moves counts the
	// live range migrations the coordinator has completed.
	RoutingEpoch uint64
	Moves        int64
}

// CrossRatio returns the fraction of routed write transactions that
// spanned several partitions.
func (s Stats) CrossRatio() float64 {
	if total := s.SingleTxns + s.CrossTxns; total > 0 {
		return float64(s.CrossTxns) / float64(total)
	}
	return 0
}

// Coordinator fronts N status-oracle partitions with the single-oracle
// interface: it satisfies txn.Arbiter (plus the batching, forgetting and
// status-resolving extensions), so the transaction layer
// runs unchanged on top of a partitioned oracle.
type Coordinator struct {
	cfg   Config
	parts []Backend
	clock Clock
	dlog  *DecisionLog

	// routeMu fences routing against live repartitioning: every commit
	// fan-out holds it shared for the whole round (cover computation
	// through the last backend call), MoveRange holds it exclusively while
	// it ships range state and flips the router. A flip therefore never
	// interleaves with an in-flight round — the invariant that makes a
	// live split invisible to acked commits. epoch increases by one per
	// flip; stale routing is detected (and adopted) by comparing epochs.
	routeMu sync.RWMutex
	router  Router
	epoch   uint64
	moves   atomic.Int64

	// allocMu serializes timestamp allocation with outstanding-set
	// marking, so every start timestamp observes the outstanding marks of
	// all commit timestamps allocated before it — the begin barrier's
	// ordering requirement.
	allocMu sync.Mutex
	// outstanding holds commit timestamps that were pre-allocated but
	// whose transactions are not yet fully published to every covering
	// partition. Begin blocks while any outstanding timestamp sits below
	// the new snapshot: once a snapshot is handed out, every commit below
	// it is queryable, so a reader can never first skip a transaction as
	// pending and later see it committed inside the same snapshot (the
	// Omid-style begin barrier).
	outMu       sync.Mutex
	outCond     *sync.Cond
	outstanding map[uint64]struct{}

	begins     atomic.Int64
	singleTxns atomic.Int64
	crossTxns  atomic.Int64
	crossCommits,
	crossAborts atomic.Int64

	// decideWG tracks in-flight background decide rounds (AsyncDecide);
	// decideErr latches their first failure. expiredDecides counts rounds
	// whose caller's deadline passed at the decide-wait and was released
	// early (the fan-out continued in the background).
	decideWG       sync.WaitGroup
	decideMu       sync.Mutex
	decideErr      error
	expiredDecides atomic.Int64
}

// Errors returned by the coordinator.
var (
	ErrNoBackends = errors.New("partition: coordinator needs at least one backend")
	ErrNoClock    = errors.New("partition: coordinator needs a shared clock")
)

// NewCoordinator wires a coordinator over the configured partitions.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, ErrNoBackends
	}
	if cfg.Clock == nil {
		return nil, ErrNoClock
	}
	if cfg.Router == nil {
		cfg.Router = NewHashRouter(len(cfg.Backends))
	}
	if cfg.Router.Partitions() != len(cfg.Backends) {
		return nil, fmt.Errorf("partition: router covers %d partitions, have %d backends",
			cfg.Router.Partitions(), len(cfg.Backends))
	}
	if cfg.SharedTSO {
		// SharedTSO skips the begin barrier on the strength of verdicts
		// being published inside the clock's critical section; a clock
		// that cannot be hooked would silently fall back to pre-allocated
		// timestamps with no barrier — a snapshot-visibility hole.
		if _, ok := cfg.Clock.(HookedClock); !ok {
			return nil, fmt.Errorf("partition: SharedTSO requires a HookedClock (got %T)", cfg.Clock)
		}
	}
	if cfg.DecisionLog == nil {
		cfg.DecisionLog = NewDecisionLog(nil)
	}
	co := &Coordinator{
		cfg:         cfg,
		router:      cfg.Router,
		epoch:       1,
		parts:       cfg.Backends,
		clock:       cfg.Clock,
		dlog:        cfg.DecisionLog,
		outstanding: make(map[uint64]struct{}),
	}
	co.outCond = sync.NewCond(&co.outMu)
	return co, nil
}

// Router returns the coordinator's current row router.
func (co *Coordinator) Router() Router {
	co.routeMu.RLock()
	defer co.routeMu.RUnlock()
	return co.router
}

// Routing returns the coordinator's current routing table (router + epoch).
func (co *Coordinator) Routing() RoutingTable {
	co.routeMu.RLock()
	defer co.routeMu.RUnlock()
	return RoutingTable{Epoch: co.epoch, Router: co.router}
}

// ApplyRouting adopts a routing table if it is newer than the one held —
// the epoch fence: an older or equal table (a delayed redirect, a replay)
// is ignored. Returns whether the table was adopted.
func (co *Coordinator) ApplyRouting(rt RoutingTable) bool {
	if rt.Router == nil || rt.Router.Partitions() != len(co.parts) {
		return false
	}
	co.routeMu.Lock()
	defer co.routeMu.Unlock()
	if rt.Epoch <= co.epoch {
		return false
	}
	co.epoch = rt.Epoch
	co.router = rt.Router
	return true
}

// adoptRedirect folds an epoch-aware misroute redirect into the routing
// table (no-op when the local table is already as new).
func (co *Coordinator) adoptRedirect(mr *MisrouteError) {
	r, err := ParseRouter(mr.Spec, len(co.parts))
	if err != nil {
		return // unusable spec; the retry will fail and surface the misroute
	}
	co.ApplyRouting(RoutingTable{Epoch: mr.Epoch, Router: r})
}

// MoveRange performs one live repartitioning step: it reassigns [lo, hi)
// (hi == 0 means the end of the row-id space) to partition to, migrating
// the donor partitions' commit-table state for the range, and flips the
// routing table under the epoch fence. The current router must be a
// RangeMap (the elastic deployment's router).
//
// Ordering is what makes the move invisible to acked commits:
//
//  1. routeMu is taken exclusively — every commit fan-out holds it shared
//     for its whole round, so the move begins only between rounds and no
//     round ever straddles the flip.
//  2. Background decide rounds are drained: every acked cross-partition
//     verdict is applied on its partitions before any state ships.
//  3. Per segment of [lo, hi) owned elsewhere: the donor's commit-table
//     state for the range is exported (refused while prepared rows sit in
//     range — the rebalancer retries next tick), applied on the target
//     (logged to the target's WAL first), then discarded on the donor
//     (logged to the donor's WAL), and the router flips for that segment.
//     A crash between apply and discard replays into a doubly-owned range —
//     safe pessimism, both copies answer conflict checks identically until
//     the discard record replays.
//  4. After the last segment the new table is pushed to every routing-aware
//     backend. Push failures are harmless: the flip already happened, so a
//     stale server answers with a redirect carrying the new epoch and
//     adoption self-heals the table.
//
// Flipping per segment (not once at the end) keeps the router consistent
// with wherever the state actually lives if a later segment's export fails
// mid-move.
func (co *Coordinator) MoveRange(lo, hi uint64, to int) error {
	co.routeMu.Lock()
	defer co.routeMu.Unlock()
	if to < 0 || to >= len(co.parts) {
		return fmt.Errorf("partition: move target %d out of range [0,%d)", to, len(co.parts))
	}
	rm, ok := co.router.(*RangeMap)
	if !ok {
		return fmt.Errorf("partition: live moves need a RangeMap router (have %T)", co.router)
	}
	if err := co.DrainDecides(); err != nil {
		return err
	}
	tgt, ok := co.parts[to].(RangeMigratable)
	if !ok {
		return fmt.Errorf("partition: backend %d cannot accept range state (%T)", to, co.parts[to])
	}
	moved := false
	for _, seg := range rm.rangesIn(lo, hi) {
		if seg.owner == to {
			continue
		}
		donor, ok := co.parts[seg.owner].(RangeMigratable)
		if !ok {
			return fmt.Errorf("partition: backend %d cannot export range state (%T)", seg.owner, co.parts[seg.owner])
		}
		rs, err := donor.ExportRange(seg.lo, seg.hi)
		if err != nil {
			return err
		}
		if err := tgt.ApplyRange(rs); err != nil {
			return err
		}
		if err := donor.DiscardRange(seg.lo, seg.hi); err != nil {
			return err
		}
		next, err := rm.WithMove(seg.lo, seg.hi, to)
		if err != nil {
			return err
		}
		rm = next
		co.router = next
		co.epoch++
		moved = true
	}
	if !moved {
		return nil
	}
	co.moves.Add(1)
	co.pushRouting(RoutingTable{Epoch: co.epoch, Router: rm})
	return nil
}

// pushRouting offers a routing table to every routing-aware backend. Push
// failures are harmless (a stale server answers with a redirect and the
// commit path re-pushes), as are pushes to already-current servers (the
// epoch fence drops them).
func (co *Coordinator) pushRouting(rt RoutingTable) {
	for _, b := range co.parts {
		if ru, ok := b.(RoutingUpdatable); ok {
			_ = ru.SetRouting(rt)
		}
	}
}

// DecisionLog returns the coordinator's decision log (for recovery
// tooling).
func (co *Coordinator) DecisionLog() *DecisionLog { return co.dlog }

// Begin allocates a start timestamp and holds it until every commit
// timestamp allocated below it is fully published — see the begin-barrier
// comment on Coordinator.outstanding.
func (co *Coordinator) Begin() (uint64, error) {
	if co.cfg.SharedTSO {
		// Shared-TSO verdicts are published inside the timestamp oracle's
		// critical section, so a fresh snapshot can already resolve every
		// commit below it — no barrier, no alloc serialization.
		ts, err := co.clock.Next()
		if err != nil {
			return 0, err
		}
		co.begins.Add(1)
		return ts, nil
	}
	co.allocMu.Lock()
	ts, err := co.clock.Next()
	co.allocMu.Unlock()
	if err != nil {
		return 0, err
	}
	co.waitPublished(ts)
	co.begins.Add(1)
	return ts, nil
}

// allocCommitTSs draws a block of n commit timestamps and marks them
// outstanding before any later start timestamp can be issued.
func (co *Coordinator) allocCommitTSs(n int) (uint64, error) {
	co.allocMu.Lock()
	defer co.allocMu.Unlock()
	lo, err := co.clock.NextBlock(n)
	if err != nil {
		return 0, err
	}
	co.outMu.Lock()
	for i := 0; i < n; i++ {
		co.outstanding[lo+uint64(i)] = struct{}{}
	}
	co.outMu.Unlock()
	return lo, nil
}

// releaseCommitTSs clears a block from the outstanding set once its
// transactions are published (or their round has failed — an unpublished
// failure is settled through the decision log and in-doubt resolution, not
// by stalling every future snapshot).
func (co *Coordinator) releaseCommitTSs(lo uint64, n int) {
	co.outMu.Lock()
	for i := 0; i < n; i++ {
		delete(co.outstanding, lo+uint64(i))
	}
	co.outCond.Broadcast()
	co.outMu.Unlock()
}

// waitPublished blocks until no outstanding commit timestamp sits below
// ts.
func (co *Coordinator) waitPublished(ts uint64) {
	co.outMu.Lock()
	for {
		pending := false
		for ct := range co.outstanding {
			if ct < ts {
				pending = true
				break
			}
		}
		if !pending {
			co.outMu.Unlock()
			return
		}
		co.outCond.Wait()
	}
}

// coverWith returns the sorted partition set covering a commit request's
// write rows and check rows (oracle.Engine.Rows) per router — the
// commit fan-out pins one router snapshot for its whole round (under
// routeMu), so every cover and slice of the round agrees on ownership.
func (co *Coordinator) coverWith(router Router, req *oracle.CommitRequest) []int {
	n := router.Partitions()
	if n == 1 {
		return []int{0}
	}
	var mask uint64 // partitions fit in a word for any sane N; fall back below
	var list []int
	add := func(p int) {
		if n <= 64 {
			mask |= 1 << uint(p)
			return
		}
		for _, q := range list {
			if q == p {
				return
			}
		}
		list = append(list, p)
	}
	check, _ := co.cfg.Engine.Rows(req.WriteSet, req.ReadSet)
	for _, set := range [2][]oracle.RowID{req.WriteSet, check} {
		for _, r := range set {
			add(router.Partition(r))
		}
	}
	if n <= 64 {
		out := make([]int, 0, 2)
		for p := 0; p < n; p++ {
			if mask&(1<<uint(p)) != 0 {
				out = append(out, p)
			}
		}
		return out
	}
	// Rare large-N path: list is unsorted; selection sort is fine at this
	// size.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j] < list[j-1]; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	return list
}

// sliceRows filters a row set down to the rows partition p owns under the
// round's pinned router.
func sliceRows(router Router, rows []oracle.RowID, p int) []oracle.RowID {
	var out []oracle.RowID
	for _, r := range rows {
		if router.Partition(r) == p {
			out = append(out, r)
		}
	}
	return out
}

// Commit decides one commit request; it is a CommitBatch of one.
func (co *Coordinator) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	res, err := co.CommitBatch([]oracle.CommitRequest{req})
	if err != nil {
		return oracle.CommitResult{}, err
	}
	return res[0], nil
}

// CommitBatch decides a batch of commit requests across the partitions:
// read-only requests commit immediately, requests whose rows live on one
// partition are grouped and sent down that partition's one-shot fast path,
// and requests spanning several partitions run the two-phase
// prepare/decide protocol — all concurrently. An error reports an
// infrastructure failure; per-transaction conflicts are reported in the
// results.
//
// The whole fan-out runs under the routing fence (routeMu, shared): a live
// repartition waits for in-flight rounds and no round ever mixes routers.
// A partition server that rejects a group as misrouted (this coordinator's
// table went stale against a rebalance elsewhere) answers with an
// epoch-aware redirect; the group — atomically rejected before any state
// change — is re-routed under the refreshed table and retried once.
func (co *Coordinator) CommitBatch(reqs []oracle.CommitRequest) ([]oracle.CommitResult, error) {
	return co.CommitBatchDeadline(reqs, time.Time{})
}

// CommitBatchDeadline is CommitBatch with an absolute expiry — the
// cooperative-cancellation hook for callers serving requests under ingress
// envelope deadlines. An already-expired batch does no work and returns
// oracle.ErrExpired. A deadline that passes mid-round is honored at the
// decide-wait: once the verdicts are durably recorded in the decision log
// they are final and queryable, so the decide fan-out is moved to the
// background (tracked like AsyncDecide rounds; DrainDecides still waits
// for it) and the caller gets oracle.ErrExpired back instead of occupying
// its slot for the slowest partition's decide round trip. A server
// fronting the coordinator renders that error as an expired reply and
// counts it in the ingress expired metric, exactly like a coalescer drop;
// the client resolves the outcome through the in-doubt status machinery.
func (co *Coordinator) CommitBatchDeadline(reqs []oracle.CommitRequest, deadline time.Time) ([]oracle.CommitResult, error) {
	if expired(deadline) {
		return nil, oracle.ErrExpired
	}
	results := make([]oracle.CommitResult, len(reqs))
	if err := co.commitRouted(reqs, results, nil, 0, deadline); err != nil {
		return nil, err
	}
	return results, nil
}

// expired reports whether a non-zero absolute deadline has passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// commitRouted routes and decides the requests selected by idxs (nil means
// all of reqs) into results. depth > 0 marks a misroute retry; a group
// misrouted twice surfaces the error rather than looping.
func (co *Coordinator) commitRouted(reqs []oracle.CommitRequest, results []oracle.CommitResult, idxs []int, depth int, deadline time.Time) error {
	co.routeMu.RLock()
	router := co.router
	singles := make(map[int][]int)
	var multi []int
	covers := make([][]int, len(reqs))
	route := func(i int) {
		if reqs[i].ReadOnly() {
			// §5.1 read-only fast path, unchanged by partitioning.
			results[i] = oracle.CommitResult{Committed: true, CommitTS: reqs[i].StartTS}
			return
		}
		cover := co.coverWith(router, &reqs[i])
		covers[i] = cover
		if len(cover) == 1 {
			singles[cover[0]] = append(singles[cover[0]], i)
		} else {
			multi = append(multi, i)
		}
	}
	if idxs == nil {
		for i := range reqs {
			route(i)
		}
	} else {
		for _, i := range idxs {
			route(i)
		}
	}
	if depth == 0 {
		// A retried group is counted once, under its first classification.
		nSingles := 0
		for _, g := range singles {
			nSingles += len(g)
		}
		co.singleTxns.Add(int64(nSingles))
		co.crossTxns.Add(int64(len(multi)))
	}

	// Misrouted groups collect here for the post-fence retry; the redirect
	// with the newest epoch refreshes the routing table. The retry runs
	// outside the read lock — adopting a table needs the write lock.
	var (
		redMu    sync.Mutex
		retry    []int
		redirect *MisrouteError
	)
	noteMisroute := func(mr *MisrouteError, group []int) {
		redMu.Lock()
		retry = append(retry, group...)
		if redirect == nil || mr.Epoch > redirect.Epoch {
			redirect = mr
		}
		redMu.Unlock()
	}

	errCh := make(chan error, len(singles)+1)
	var wg sync.WaitGroup
	for p, group := range singles {
		wg.Add(1)
		go func(p int, group []int) {
			defer wg.Done()
			err := co.commitSingles(p, reqs, group, results)
			if err == nil {
				return
			}
			if mr := AsMisroute(err); mr != nil {
				// The server rejects a misrouted group before touching any
				// state, so re-routing the whole group is safe.
				noteMisroute(mr, group)
				return
			}
			errCh <- err
		}(p, group)
	}
	if len(multi) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := co.commitCross(router, reqs, multi, covers, results, noteMisroute, deadline); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	co.routeMu.RUnlock()
	select {
	case err := <-errCh:
		return err
	default:
	}
	if redirect != nil {
		co.adoptRedirect(redirect)
		if rt := co.Routing(); redirect.Epoch < rt.Epoch {
			// The redirecting server is the stale party — typically a
			// partition that crash-restarted on its static flag table and
			// lost the adopted routing epoch. Heal it by pushing the newer
			// table down before the retry; the server-side epoch fence makes
			// the push idempotent and drop-safe on already-current servers.
			co.pushRouting(rt)
		}
	}
	if len(retry) == 0 {
		return nil
	}
	if depth > 0 {
		return redirect
	}
	return co.commitRouted(reqs, results, retry, depth+1, deadline)
}

// Pools recycling the coordinator's per-round frame containers. Only the
// container slices cycle: every backend — the in-process oracle and the
// wire client alike — is done with the container when its call returns
// (what a prepare retains are the per-slice row sets, which are fresh
// sliceRows copies, never pooled).
var (
	commitSubPool = sync.Pool{New: func() interface{} { s := make([]oracle.CommitRequest, 0, 64); return &s }}
	prepSubPool   = sync.Pool{New: func() interface{} { s := make([]oracle.PrepareRequest, 0, 64); return &s }}
	decideSubPool = sync.Pool{New: func() interface{} { s := make([]oracle.Decision, 0, 64); return &s }}
)

// commitSingles routes one partition's group of single-partition requests
// down its fast path.
func (co *Coordinator) commitSingles(p int, reqs []oracle.CommitRequest, idxs []int, results []oracle.CommitResult) error {
	if co.cfg.SharedTSO {
		// The partition shares the coordinator's timestamp oracle: its own
		// CommitBatch allocates and publishes commit timestamps atomically,
		// so no begin barrier is needed.
		sp := commitSubPool.Get().(*[]oracle.CommitRequest)
		sub := (*sp)[:0]
		for _, i := range idxs {
			sub = append(sub, reqs[i])
		}
		res, err := co.parts[p].CommitBatch(sub)
		*sp = sub[:0]
		commitSubPool.Put(sp)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			results[i] = res[k]
		}
		return nil
	}
	lo, err := co.allocCommitTSs(len(idxs))
	if err != nil {
		return err
	}
	defer co.releaseCommitTSs(lo, len(idxs))
	sp := prepSubPool.Get().(*[]oracle.PrepareRequest)
	sub := (*sp)[:0]
	for k, i := range idxs {
		// Only the guard rows travel as the read set: the cover includes
		// every check row's partition, so they are all owned here. Under
		// SI there are none, and a read set spanning foreign partitions
		// would trip the server's ownership guard.
		_, guard := co.cfg.Engine.Rows(reqs[i].WriteSet, reqs[i].ReadSet)
		sub = append(sub, oracle.PrepareRequest{
			StartTS:  reqs[i].StartTS,
			CommitTS: lo + uint64(k),
			WriteSet: reqs[i].WriteSet,
			ReadSet:  guard,
		})
	}
	res, err := co.parts[p].CommitAtBatch(sub)
	*sp = sub[:0]
	prepSubPool.Put(sp)
	if err != nil {
		return err
	}
	for k, i := range idxs {
		results[i] = res[k]
	}
	return nil
}

// crossRound is the shared state of one two-phase fan-out.
type crossRound struct {
	prepReqs map[int][]oracle.PrepareRequest
	slots    map[int][]int // partition -> index into multi, per prepare slice
}

// buildSlices cuts each cross-partition request into per-partition prepare
// slices under the round's pinned router. ctOf supplies the pre-allocated
// commit timestamp (0 in shared mode, where the timestamp is assigned at
// decide time).
func (co *Coordinator) buildSlices(router Router, reqs []oracle.CommitRequest, multi []int, covers [][]int, ctOf func(k int) uint64) crossRound {
	r := crossRound{
		prepReqs: make(map[int][]oracle.PrepareRequest),
		slots:    make(map[int][]int),
	}
	for k, i := range multi {
		_, guard := co.cfg.Engine.Rows(reqs[i].WriteSet, reqs[i].ReadSet)
		for _, p := range covers[i] {
			pr := oracle.PrepareRequest{
				StartTS:  reqs[i].StartTS,
				CommitTS: ctOf(k),
				WriteSet: sliceRows(router, reqs[i].WriteSet, p),
				ReadSet:  sliceRows(router, guard, p),
			}
			r.prepReqs[p] = append(r.prepReqs[p], pr)
			r.slots[p] = append(r.slots[p], k)
		}
	}
	return r
}

// prepareRound runs phase one in parallel and ANDs the votes. A partition
// that fails to answer vetoes every transaction it covers — aborting more
// than a serial oracle would is always safe, and the client is never
// acknowledged for a commit that was not unanimously prepared. A misrouted
// prepare slice (the partition no longer owns those rows) likewise only
// vetoes, and the redirect it carried is returned so the caller can refresh
// its routing table: the transaction aborts cleanly this round and the
// client's retry routes correctly.
func (co *Coordinator) prepareRound(r crossRound, n int) ([]bool, *MisrouteError) {
	votes := make([]bool, n)
	for i := range votes {
		votes[i] = true
	}
	var redirect *MisrouteError
	var vmu sync.Mutex
	var wg sync.WaitGroup
	for p, prs := range r.prepReqs {
		wg.Add(1)
		go func(p int, prs []oracle.PrepareRequest) {
			defer wg.Done()
			vs, err := co.parts[p].PrepareBatch(prs)
			vmu.Lock()
			defer vmu.Unlock()
			if err != nil {
				if mr := AsMisroute(err); mr != nil && (redirect == nil || mr.Epoch > redirect.Epoch) {
					redirect = mr
				}
				for _, k := range r.slots[p] {
					votes[k] = false
				}
				return
			}
			for j, k := range r.slots[p] {
				if !vs[j] {
					votes[k] = false
				}
			}
		}(p, prs)
	}
	wg.Wait()
	return votes, redirect
}

// decideRound fans the verdicts to every covering partition in parallel.
func (co *Coordinator) decideRound(r crossRound, decisions []oracle.Decision) error {
	var dmu sync.Mutex
	var decideErr error
	var wg sync.WaitGroup
	for p := range r.prepReqs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dp := decideSubPool.Get().(*[]oracle.Decision)
			ds := (*dp)[:0]
			for _, k := range r.slots[p] {
				ds = append(ds, decisions[k])
			}
			err := co.parts[p].DecideBatch(ds)
			*dp = ds[:0]
			decideSubPool.Put(dp)
			if err != nil {
				dmu.Lock()
				decideErr = err
				dmu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	return decideErr
}

// finishCross writes the round's results and counters.
func (co *Coordinator) finishCross(multi []int, decisions []oracle.Decision, results []oracle.CommitResult) {
	var commits, aborts int64
	for k, i := range multi {
		results[i] = oracle.CommitResult{Committed: decisions[k].Commit}
		if decisions[k].Commit {
			results[i].CommitTS = decisions[k].CommitTS
			commits++
		} else {
			aborts++
		}
	}
	co.crossCommits.Add(commits)
	co.crossAborts.Add(aborts)
}

// commitCross runs one two-phase round for the batch's cross-partition
// requests.
//
// In shared-TSO mode the commit timestamps are allocated *after* the votes,
// inside the timestamp oracle's critical section, with the verdicts
// published to the decision log in the same section — so any snapshot
// issued above a commit's timestamp can already resolve the commit from
// the log, no begin barrier required. This mirrors how the single oracle
// publishes its commit-table entries atomically with the allocation.
//
// In remote mode the timestamps are pre-allocated (the issue of a remote
// clock cannot be hooked), so the begin barrier holds new snapshots until
// the verdicts are durably recorded; it releases as soon as the decision
// log — which the coordinator's merged queries consult — has them, not
// when the slower decide fan-out completes.
func (co *Coordinator) commitCross(router Router, reqs []oracle.CommitRequest, multi []int, covers [][]int, results []oracle.CommitResult, noteMisroute func(*MisrouteError, []int), deadline time.Time) error {
	if co.cfg.SharedTSO {
		// NewCoordinator guarantees the clock is hookable in this mode.
		return co.commitCrossShared(co.clock.(HookedClock), router, reqs, multi, covers, results, noteMisroute, deadline)
	}
	return co.commitCrossBarrier(router, reqs, multi, covers, results, noteMisroute, deadline)
}

// commitCrossShared is the barrier-free in-process path.
func (co *Coordinator) commitCrossShared(hc HookedClock, router Router, reqs []oracle.CommitRequest, multi []int, covers [][]int, results []oracle.CommitResult, noteMisroute func(*MisrouteError, []int), deadline time.Time) error {
	round := co.buildSlices(router, reqs, multi, covers, func(int) uint64 { return 0 })
	votes, mr := co.prepareRound(round, len(multi))
	if mr != nil {
		// Misrouted slices were vetoed (the transactions abort, nothing is
		// acked wrongly); capture the redirect so the table refreshes, but
		// retry nothing — the abort verdicts below are final.
		noteMisroute(mr, nil)
	}

	decisions := make([]oracle.Decision, len(multi))
	for k, i := range multi {
		decisions[k] = oracle.Decision{StartTS: reqs[i].StartTS, Commit: votes[k]}
	}
	_, err := hc.NextBlockWith(len(multi), func(lo, _ uint64) {
		for k := range decisions {
			decisions[k].CommitTS = lo + uint64(k)
		}
		// Inside the critical section: every later snapshot resolves
		// these verdicts from the log.
		co.dlog.publishMem(decisions)
	})
	if err != nil {
		// No timestamps, nothing published: abort everything to release
		// the prepared rows, then surface the infrastructure failure.
		for k := range decisions {
			decisions[k].Commit = false
		}
		_ = co.decideRound(round, decisions)
		co.finishCross(multi, decisions, results)
		return err
	}
	// The verdicts are already published; a durability failure here makes
	// the commits in-doubt for the client (surfaced as an error), but they
	// stand — readers may have observed them.
	walErr := co.dlog.appendWAL(decisions)
	decideErr := co.runDecides(round, decisions, deadline)
	co.finishCross(multi, decisions, results)
	if walErr != nil {
		return walErr
	}
	return decideErr
}

// runDecides fans the verdicts out — inline, or in the background under
// AsyncDecide (the verdicts are already durable and queryable, so the ack
// need not wait; a failure latches and surfaces on the next commit).
//
// A caller whose deadline passed while the verdicts were being recorded is
// released here instead of waiting out the fan-out: every precondition for
// backgrounding holds (the decisions are final and queryable through the
// log), so the round is handed to the AsyncDecide machinery and the caller
// gets oracle.ErrExpired — cooperative cancellation of post-admission work
// that nobody is waiting for.
func (co *Coordinator) runDecides(round crossRound, decisions []oracle.Decision, deadline time.Time) error {
	if !co.cfg.AsyncDecide {
		if !expired(deadline) {
			return co.decideRound(round, decisions)
		}
		co.expiredDecides.Add(1)
		co.decideWG.Add(1)
		go func() {
			defer co.decideWG.Done()
			if err := co.decideRound(round, decisions); err != nil {
				co.decideMu.Lock()
				if co.decideErr == nil {
					co.decideErr = err
				}
				co.decideMu.Unlock()
			}
		}()
		return oracle.ErrExpired
	}
	co.decideWG.Add(1)
	go func() {
		defer co.decideWG.Done()
		if err := co.decideRound(round, decisions); err != nil {
			co.decideMu.Lock()
			if co.decideErr == nil {
				co.decideErr = err
			}
			co.decideMu.Unlock()
		}
	}()
	co.decideMu.Lock()
	err := co.decideErr
	co.decideMu.Unlock()
	return err
}

// DrainDecides waits for every background decide round to land on its
// partitions and returns the first latched fan-out failure, if any.
func (co *Coordinator) DrainDecides() error {
	co.decideWG.Wait()
	co.decideMu.Lock()
	defer co.decideMu.Unlock()
	return co.decideErr
}

// commitCrossBarrier is the pre-allocated-timestamp path for remote
// partitions.
func (co *Coordinator) commitCrossBarrier(router Router, reqs []oracle.CommitRequest, multi []int, covers [][]int, results []oracle.CommitResult, noteMisroute func(*MisrouteError, []int), deadline time.Time) error {
	lo, err := co.allocCommitTSs(len(multi))
	if err != nil {
		return err
	}
	released := false
	release := func() {
		if !released {
			released = true
			co.releaseCommitTSs(lo, len(multi))
		}
	}
	defer release()

	round := co.buildSlices(router, reqs, multi, covers, func(k int) uint64 { return lo + uint64(k) })
	votes, mr := co.prepareRound(round, len(multi))
	if mr != nil {
		// As in the shared path: vetoed aborts stand, only the table refresh
		// is taken from the redirect.
		noteMisroute(mr, nil)
	}

	decisions := make([]oracle.Decision, len(multi))
	for k, i := range multi {
		decisions[k] = oracle.Decision{StartTS: reqs[i].StartTS, CommitTS: lo + uint64(k), Commit: votes[k]}
	}
	// Verdicts must be durable before any decide fans out. If the decision
	// log cannot be persisted, no commit may be promised: flip everything
	// to abort (safe — nothing was acknowledged) and still fan the aborts
	// out to release the prepared rows.
	dlogErr := co.dlog.RecordAll(decisions)
	if dlogErr != nil {
		for k := range decisions {
			decisions[k].Commit = false
		}
	}
	// The log now answers queries for these transactions; new snapshots
	// need not wait for the decide fan-out.
	release()
	decideErr := co.runDecides(round, decisions, deadline)
	co.finishCross(multi, decisions, results)
	if dlogErr != nil {
		return dlogErr
	}
	if decideErr != nil {
		// Some partition did not apply its decides; the transactions are
		// settled (decision log) but not fully published there, so the
		// client must treat its commits as in-doubt rather than
		// acknowledged.
		return decideErr
	}
	return nil
}

// Query reports a transaction's status; it is a QueryBatch of one.
func (co *Coordinator) Query(startTS uint64) oracle.TxnStatus {
	return co.QueryBatch([]uint64{startTS})[0]
}

// QueryBatch resolves transaction statuses by fanning each batch out to
// every partition and merging the answers: committed wins (any partition
// that published the commit is proof of the unanimous verdict), then
// aborted, then unknown (evicted), then pending. Because readers resolve a
// transaction's fate once per start timestamp and the first published
// partition already answers committed, a snapshot can never observe a
// half-decided transaction — one key committed, another still pending.
func (co *Coordinator) QueryBatch(startTSs []uint64) []oracle.TxnStatus {
	out := make([]oracle.TxnStatus, len(startTSs))
	if len(startTSs) == 0 {
		return out
	}
	if len(co.parts) == 1 {
		return co.parts[0].QueryBatch(startTSs)
	}
	answers := make([][]oracle.TxnStatus, len(co.parts))
	var wg sync.WaitGroup
	for p := range co.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			answers[p] = co.parts[p].QueryBatch(startTSs)
		}(p)
	}
	wg.Wait()
	for i := range out {
		out[i] = mergeStatuses(answers, i)
		if out[i].Status == oracle.StatusPending || out[i].Status == oracle.StatusUnknown {
			// The decision log bridges the decide fan-out window: a
			// verdict is published there before (shared mode: atomically
			// with) its commit timestamp becomes visible to any snapshot.
			if d, ok := co.dlog.Lookup(startTSs[i]); ok {
				if d.Commit {
					out[i] = oracle.TxnStatus{Status: oracle.StatusCommitted, CommitTS: d.CommitTS}
				} else {
					out[i] = oracle.TxnStatus{Status: oracle.StatusAborted}
				}
			}
		}
	}
	return out
}

// mergeStatuses folds the per-partition answers for one start timestamp.
func mergeStatuses(answers [][]oracle.TxnStatus, i int) oracle.TxnStatus {
	merged := oracle.TxnStatus{Status: oracle.StatusPending}
	for p := range answers {
		if len(answers[p]) <= i {
			continue
		}
		st := answers[p][i]
		switch st.Status {
		case oracle.StatusCommitted:
			return st
		case oracle.StatusAborted:
			merged = st
		case oracle.StatusUnknown:
			if merged.Status == oracle.StatusPending {
				merged = st
			}
		}
	}
	return merged
}

// ResolveStatus is the error-aware status lookup in-doubt clients use: it
// answers from the decision log first (the authoritative verdict record),
// then from the partitions; a transport failure is reported only when no
// authoritative answer could be obtained.
func (co *Coordinator) ResolveStatus(startTS uint64) (oracle.TxnStatus, error) {
	if d, ok := co.dlog.Lookup(startTS); ok {
		if d.Commit {
			return oracle.TxnStatus{Status: oracle.StatusCommitted, CommitTS: d.CommitTS}, nil
		}
		return oracle.TxnStatus{Status: oracle.StatusAborted}, nil
	}
	merged := oracle.TxnStatus{Status: oracle.StatusPending}
	var firstErr error
	for _, b := range co.parts {
		var st oracle.TxnStatus
		var err error
		if r, ok := b.(StatusResolving); ok {
			st, err = r.ResolveStatus(startTS)
		} else {
			st = b.QueryBatch([]uint64{startTS})[0]
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		switch st.Status {
		case oracle.StatusCommitted:
			return st, nil
		case oracle.StatusAborted:
			merged = st
		case oracle.StatusUnknown:
			if merged.Status == oracle.StatusPending {
				merged = st
			}
		}
	}
	if firstErr != nil && merged.Status == oracle.StatusPending {
		// A silent partition might have held the only copy of the answer.
		return oracle.TxnStatus{}, firstErr
	}
	return merged, nil
}

// Abort records an explicit client abort on every partition, so whichever
// partitions own the transaction's rows answer aborted.
func (co *Coordinator) Abort(startTS uint64) error {
	var firstErr error
	for _, b := range co.parts {
		if err := b.Abort(startTS); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Forget drops an aborted transaction's record on every partition.
func (co *Coordinator) Forget(startTS uint64) {
	for _, b := range co.parts {
		b.Forget(startTS)
	}
}

// Close waits for every background decide round to land on its partitions.
func (co *Coordinator) Close() {
	co.decideWG.Wait()
}

// Stats snapshots the coordinator counters. Each partition's own counters
// are its oracle's (locally) or its server's metrics (remotely).
func (co *Coordinator) Stats() Stats {
	return Stats{
		Begins:         co.begins.Load(),
		SingleTxns:     co.singleTxns.Load(),
		CrossTxns:      co.crossTxns.Load(),
		CrossCommits:   co.crossCommits.Load(),
		CrossAborts:    co.crossAborts.Load(),
		ExpiredDecides: co.expiredDecides.Load(),
		RoutingEpoch:   co.Routing().Epoch,
		Moves:          co.moves.Load(),
	}
}

// MetricsSource adapts the coordinator's counters to the metrics registry.
// Per-partition oracle counters are not re-emitted here — each partition
// server exposes its own oracle_* series.
func (co *Coordinator) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) {
		emit(metrics.C("partition_begins_total", co.begins.Load()))
		emit(metrics.C("partition_single_txns_total", co.singleTxns.Load()))
		emit(metrics.C("partition_cross_txns_total", co.crossTxns.Load()))
		emit(metrics.C("partition_cross_commits_total", co.crossCommits.Load()))
		emit(metrics.C("partition_cross_aborts_total", co.crossAborts.Load()))
		emit(metrics.C("partition_expired_decides_total", co.expiredDecides.Load()))
		emit(metrics.C("partition_moves_total", co.moves.Load()))
		emit(metrics.G("partition_routing_epoch", float64(co.Routing().Epoch)))
	}
}
