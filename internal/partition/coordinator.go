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
	// own timestamp oracle: a single-partition transaction then takes its
	// partition's CommitBatch, which draws and publishes its commit
	// timestamp inside the same critical section the coordinator's rounds
	// use. When false (remote partitions, which cannot draw from the
	// coordinator's clock), single-partition transactions run the same
	// two-phase round as cross-partition ones.
	SharedTSO bool
	// DecisionLog records two-phase verdicts; nil creates an in-memory
	// log (no coordinator-crash durability).
	DecisionLog *DecisionLog
}

// Stats aggregates the coordinator's own counters with a snapshot of every
// partition's oracle counters.
type Stats struct {
	// Begins counts start timestamps issued through the coordinator.
	Begins int64
	// SingleTxns and CrossTxns split the write transactions the
	// coordinator routed by whether their row sets spanned one partition
	// or several; CrossCommits/CrossAborts are the two-phase verdicts
	// (which, without SharedTSO, include single-partition transactions).
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

	begins     atomic.Int64
	singleTxns atomic.Int64
	crossTxns  atomic.Int64
	crossCommits,
	crossAborts atomic.Int64

	// decideWG tracks the decide rounds moved to the background because
	// their caller's deadline passed at the decide-wait (expiredDecides
	// counts them); decideErr latches their first failure.
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
	if cfg.DecisionLog == nil {
		cfg.DecisionLog = NewDecisionLog(nil)
	}
	return &Coordinator{
		cfg:    cfg,
		router: cfg.Router,
		epoch:  1,
		parts:  cfg.Backends,
		clock:  cfg.Clock,
		dlog:   cfg.DecisionLog,
	}, nil
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

// Begin draws a start timestamp. Every round publishes its verdicts inside
// the clock's critical section (commitCross), so a fresh snapshot can
// already resolve every commit below it.
func (co *Coordinator) Begin() (uint64, error) {
	ts, err := co.clock.Next()
	if err != nil {
		return 0, err
	}
	co.begins.Add(1)
	return ts, nil
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
// read-only requests commit immediately, and the others run the two-phase
// prepare/decide round — except that with SharedTSO a request whose rows
// live on one partition takes that partition's one-shot CommitBatch. All
// partitions work concurrently. An error reports an infrastructure
// failure; per-transaction conflicts are reported in the results.
//
// The whole fan-out runs under the routing fence (routeMu, shared): a live
// repartition waits for in-flight rounds and no round ever mixes routers.
// A partition server that rejects a slice as misrouted (this coordinator's
// table went stale against a rebalance elsewhere) answers with an
// epoch-aware redirect; a transaction the rejection left parked nowhere is
// re-routed under the refreshed table and retried once.
func (co *Coordinator) CommitBatch(reqs []oracle.CommitRequest) ([]oracle.CommitResult, error) {
	return co.CommitBatchDeadline(reqs, time.Time{})
}

// CommitBatchDeadline is CommitBatch with an absolute expiry — the
// cooperative-cancellation hook for callers serving requests under ingress
// envelope deadlines. An already-expired batch does no work and returns
// oracle.ErrExpired. A deadline that passes mid-round is honored at the
// decide-wait: once the verdicts are durably recorded in the decision log
// they are final and queryable, so the decide fan-out is moved to the
// background (DrainDecides waits for it) and the caller gets
// oracle.ErrExpired back instead of occupying its slot for the slowest
// partition's decide round trip. A server fronting the coordinator renders
// that error as an expired reply and counts it in the ingress expired
// metric, exactly like a coalescer drop; the client resolves the outcome
// through the in-doubt status machinery.
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
// all of reqs) into results. depth > 0 marks a misroute retry; a request
// misrouted twice surfaces the error rather than looping.
func (co *Coordinator) commitRouted(reqs []oracle.CommitRequest, results []oracle.CommitResult, idxs []int, depth int, deadline time.Time) error {
	co.routeMu.RLock()
	router := co.router
	singles := make(map[int][]int)
	var multi []int
	var nSingles, nCross int64
	covers := make([][]int, len(reqs))
	route := func(i int) {
		if reqs[i].ReadOnly() {
			// §5.1 read-only fast path, unchanged by partitioning.
			results[i] = oracle.CommitResult{Committed: true, CommitTS: reqs[i].StartTS}
			return
		}
		cover := co.coverWith(router, &reqs[i])
		covers[i] = cover
		if len(cover) > 1 {
			nCross++
			multi = append(multi, i)
			return
		}
		nSingles++
		if co.cfg.SharedTSO {
			singles[cover[0]] = append(singles[cover[0]], i)
		} else {
			// A remote partition cannot draw its commit timestamp after
			// its check from the coordinator's clock, so the request takes
			// the two-phase round, which can.
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
		// A retried request is counted once, under its first classification.
		co.singleTxns.Add(nSingles)
		co.crossTxns.Add(nCross)
	}

	// Misrouted requests collect here for the post-fence retry; the
	// redirect with the newest epoch refreshes the routing table. The retry
	// runs outside the read lock — adopting a table needs the write lock.
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
			if err := co.commitSingles(p, reqs, group, results); err != nil {
				errCh <- err
			}
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
	decideSubPool = sync.Pool{New: func() interface{} { s := make([]oracle.Decision, 0, 64); return &s }}
)

// commitSingles sends one partition's group of single-partition requests
// down its CommitBatch, which draws and publishes their commit timestamps
// inside the shared timestamp oracle's critical section (Config.SharedTSO).
func (co *Coordinator) commitSingles(p int, reqs []oracle.CommitRequest, idxs []int, results []oracle.CommitResult) error {
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

// crossRound is the shared state of one two-phase fan-out.
type crossRound struct {
	prepReqs map[int][]oracle.PrepareRequest
	slots    map[int][]int // partition -> index into multi, per prepare slice
}

// buildSlices cuts each request of a round into per-partition prepare
// slices under the round's pinned router. The slices carry no commit
// timestamp: it is drawn after the votes.
func (co *Coordinator) buildSlices(router Router, reqs []oracle.CommitRequest, multi []int, covers [][]int) crossRound {
	r := crossRound{
		prepReqs: make(map[int][]oracle.PrepareRequest),
		slots:    make(map[int][]int),
	}
	for k, i := range multi {
		// Only the guard rows travel as the read set: the cover includes
		// every check row's partition, so each slice's guard rows are owned
		// there. Under SI there are none, and a read set spanning foreign
		// partitions would trip the server's ownership guard.
		_, guard := co.cfg.Engine.Rows(reqs[i].WriteSet, reqs[i].ReadSet)
		for _, p := range covers[i] {
			pr := oracle.PrepareRequest{
				StartTS:  reqs[i].StartTS,
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
// acknowledged for a commit that was not unanimously prepared. A partition
// that rejects its slices as misrouted (it no longer owns those rows) parks
// none of them and likewise vetoes; it is returned among the misrouted
// partitions, with the newest redirect, so the caller can drop it from the
// round and refresh its routing table.
func (co *Coordinator) prepareRound(r crossRound, n int) ([]bool, *MisrouteError, []int) {
	votes := make([]bool, n)
	for i := range votes {
		votes[i] = true
	}
	// One struct, so the goroutines capture one heap variable.
	var out struct {
		mu        sync.Mutex
		redirect  *MisrouteError
		misrouted []int
	}
	var wg sync.WaitGroup
	for p, prs := range r.prepReqs {
		wg.Add(1)
		go func(p int, prs []oracle.PrepareRequest) {
			defer wg.Done()
			vs, err := co.parts[p].PrepareBatch(prs)
			out.mu.Lock()
			defer out.mu.Unlock()
			if err != nil {
				if mr := AsMisroute(err); mr != nil {
					out.misrouted = append(out.misrouted, p)
					if out.redirect == nil || mr.Epoch > out.redirect.Epoch {
						out.redirect = mr
					}
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
	return votes, out.redirect, out.misrouted
}

// dropMisrouted takes the misrouted partitions out of the round — they
// parked nothing, so they get no decide — together with every transaction
// that has no slice left on another partition. It returns the remaining
// transactions with their votes, renumbering the slots to match, and the
// dropped ones (as request indexes) for the misroute retry.
func (r *crossRound) dropMisrouted(misrouted, multi []int, votes []bool) (kept []int, keptVotes []bool, retry []int) {
	for _, p := range misrouted {
		delete(r.prepReqs, p)
		delete(r.slots, p)
	}
	renum := make([]int, len(multi))
	for k := range renum {
		renum[k] = -1
	}
	for _, ks := range r.slots {
		for _, k := range ks {
			renum[k] = 0
		}
	}
	for k, i := range multi {
		if renum[k] < 0 {
			retry = append(retry, i)
			continue
		}
		renum[k] = len(kept)
		kept = append(kept, i)
		keptVotes = append(keptVotes, votes[k])
	}
	for _, ks := range r.slots {
		for j, k := range ks {
			ks[j] = renum[k]
		}
	}
	return kept, keptVotes, retry
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

// commitCross runs one two-phase round for the requests in multi.
//
// The commit timestamps are drawn *after* the votes, inside the clock's
// critical section, and the same section publishes the verdicts to the
// decision log. So every transaction is checked against every commit below
// its commit timestamp, and any snapshot issued above a commit's timestamp
// can already resolve the commit from the log. This mirrors how the single
// oracle publishes its commit-table entries atomically with the
// allocation.
func (co *Coordinator) commitCross(router Router, reqs []oracle.CommitRequest, multi []int, covers [][]int, results []oracle.CommitResult, noteMisroute func(*MisrouteError, []int), deadline time.Time) error {
	round := co.buildSlices(router, reqs, multi, covers)
	votes, mr, misrouted := co.prepareRound(round, len(multi))
	if mr != nil {
		// A transaction with a slice placed aborts below (nothing is acked
		// wrongly); one with none placed was parked nowhere and is retried
		// under the refreshed table.
		var retry []int
		multi, votes, retry = round.dropMisrouted(misrouted, multi, votes)
		noteMisroute(mr, retry)
		if len(multi) == 0 {
			return nil
		}
	}

	decisions := make([]oracle.Decision, len(multi))
	for k, i := range multi {
		decisions[k] = oracle.Decision{StartTS: reqs[i].StartTS, Commit: votes[k]}
	}
	_, err := co.clock.NextBlockWith(len(multi), func(lo, _ uint64) {
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

// runDecides fans the verdicts out. A caller whose deadline passed while
// the verdicts were being recorded is released here instead of waiting out
// the fan-out: the decisions are final and queryable through the log, so
// the round moves to the background (DrainDecides waits for it) and the
// caller gets oracle.ErrExpired — cooperative cancellation of
// post-admission work that nobody is waiting for.
func (co *Coordinator) runDecides(round crossRound, decisions []oracle.Decision, deadline time.Time) error {
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

// DrainDecides waits for every background decide round to land on its
// partitions and returns the first latched fan-out failure, if any.
func (co *Coordinator) DrainDecides() error {
	co.decideWG.Wait()
	co.decideMu.Lock()
	defer co.decideMu.Unlock()
	return co.decideErr
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
	// A partition that failed leaves its answer empty, which mergeStatuses
	// skips; a committed answer is final, so the partitions after it are
	// not asked.
	answers := make([][]oracle.TxnStatus, len(co.parts))
	var firstErr error
	for p, b := range co.parts {
		if r, ok := b.(StatusResolving); ok {
			st, err := r.ResolveStatus(startTS)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			answers[p] = []oracle.TxnStatus{st}
		} else {
			answers[p] = b.QueryBatch([]uint64{startTS})
		}
		if answers[p][0].Status == oracle.StatusCommitted {
			break
		}
	}
	merged := mergeStatuses(answers, 0)
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
