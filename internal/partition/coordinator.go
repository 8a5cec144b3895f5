package partition

import (
	"errors"
	"fmt"
	"math/bits"
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
	// Router maps rows to partitions. Defaults to hash routing. It never
	// changes, and must be the router every partition server of the
	// deployment was started with.
	Router Router
	// Backends are the partitions, indexed as the Router numbers them; at
	// most 64. Partition 0 is also the clock: Begin draws there, and every
	// round's commits are published there (Backend.PublishCommits).
	Backends []Backend
	// SharedTSO marks the backends as in-process oracles sharing partition
	// 0's timestamp oracle: a single-partition transaction then takes its
	// partition's CommitBatch, which draws and publishes its commit
	// timestamp inside the same critical section the coordinator's rounds
	// use. When false (remote partitions, each with its own clock),
	// single-partition transactions run the same two-phase round as
	// cross-partition ones.
	SharedTSO bool
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
	// ErrInDoubt reports a request whose outcome a backend cannot know:
	// the request was sent and its reply was lost. After a PublishCommits
	// in doubt, partition 0 may hold the round's commits, so the round's
	// yes votes stay prepared instead of being decided abort.
	ErrInDoubt = errors.New("partition: request in doubt: its reply was lost")
	// ErrMisrouted reports a slice a partition server refused because its
	// router does not give it the slice's rows: every coordinator and
	// server of a deployment must share one router.
	ErrMisrouted = errors.New("partition: misrouted request: the partition does not own these rows under its router")
)

// maxPartitions bounds a coordinator's partitions: it holds each
// transaction's partition set as one uint64 bitmask.
const maxPartitions = 64

// NewCoordinator wires a coordinator over the configured partitions.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, ErrNoBackends
	}
	if len(cfg.Backends) > maxPartitions {
		return nil, fmt.Errorf("partition: %d backends, a coordinator covers at most %d",
			len(cfg.Backends), maxPartitions)
	}
	if cfg.Router == nil {
		cfg.Router = NewHashRouter(len(cfg.Backends))
	}
	if cfg.Router.Partitions() != len(cfg.Backends) {
		return nil, fmt.Errorf("partition: router covers %d partitions, have %d backends",
			cfg.Router.Partitions(), len(cfg.Backends))
	}
	return &Coordinator{cfg: cfg, parts: cfg.Backends}, nil
}

// Begin draws a start timestamp from partition 0. Every round publishes
// its commits at partition 0 inside the same timestamp critical section
// (commitCross), so a fresh snapshot can already resolve every commit
// below it.
func (co *Coordinator) Begin() (uint64, error) {
	ts, err := co.parts[0].Begin()
	if err != nil {
		return 0, err
	}
	co.begins.Add(1)
	return ts, nil
}

// cover returns the partition set covering a commit request's write rows
// and check rows (oracle.Engine.Rows), as a bitmask: bit p is partition p.
func (co *Coordinator) cover(req *oracle.CommitRequest) uint64 {
	if co.cfg.Router.Partitions() == 1 {
		return 1
	}
	var mask uint64
	check, _ := co.cfg.Engine.Rows(req.WriteSet, req.ReadSet)
	for _, set := range [2][]oracle.RowID{req.WriteSet, check} {
		for _, r := range set {
			mask |= 1 << uint(co.cfg.Router.Partition(r))
		}
	}
	return mask
}

// sliceRows appends the rows partition p owns to buf and returns buf and
// the appended rows, capped so that a later append never grows into them.
func sliceRows(buf []oracle.RowID, router Router, rows []oracle.RowID, p int) ([]oracle.RowID, []oracle.RowID) {
	start := len(buf)
	for _, r := range rows {
		if router.Partition(r) == p {
			buf = append(buf, r)
		}
	}
	return buf, buf[start:len(buf):len(buf)]
}

// fanOut runs units 0 to n-1 of one fan-out and returns once all have
// returned: the caller's goroutine runs unit 0 and one goroutine each runs
// the others, so a fan-out of one unit starts no goroutine and allocates
// nothing. It returns unit 0's error, else the first another unit reported.
func fanOut(n int, unit func(k int) error) error {
	switch n {
	case 0:
		return nil
	case 1:
		return unit(0)
	}
	errs := make(chan error, n-1)
	for k := 1; k < n; k++ {
		go func(k int) { errs <- unit(k) }(k)
	}
	err := unit(0)
	for k := 1; k < n; k++ {
		if e := <-errs; err == nil {
			err = e
		}
	}
	return err
}

// Commit decides one commit request; it is a CommitBatch of one, run in the
// pooled call's own one-request arrays.
func (co *Coordinator) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	c := callPool.Get().(*call)
	defer c.release()
	c.one[0], c.oneRes[0] = req, oracle.CommitResult{}
	if err := c.commit(co, c.one[:], c.oneRes[:], time.Time{}); err != nil {
		return oracle.CommitResult{}, err
	}
	return c.oneRes[0], nil
}

// CommitBatch decides a batch of commit requests across the partitions:
// read-only requests commit immediately, and the others run the two-phase
// prepare/decide round — except that with SharedTSO a request whose rows
// live on one partition takes that partition's one-shot CommitBatch. Each
// partition's one-shot group and the two-phase round are the units of one
// fanOut, so a batch whose requests all land on one partition runs on the
// caller's goroutine. An error reports an infrastructure failure, or
// ErrMisrouted when a partition server refused a slice (its router
// disagrees with the coordinator's); per-transaction conflicts are
// reported in the results.
func (co *Coordinator) CommitBatch(reqs []oracle.CommitRequest) ([]oracle.CommitResult, error) {
	return co.CommitBatchDeadline(reqs, time.Time{})
}

// CommitBatchDeadline is CommitBatch with an absolute expiry — the
// cooperative-cancellation hook for callers serving requests under ingress
// envelope deadlines. An already-expired batch does no work and returns
// oracle.ErrExpired. A deadline that passes mid-round is honored at the
// decide-wait: once partition 0 has published the round's commits they are
// final and queryable, so the decide fan-out is moved to the
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
	c := callPool.Get().(*call)
	err := c.commit(co, reqs, results, deadline)
	c.release()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// expired reports whether a non-zero absolute deadline has passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// call is one commit call's routing state, pooled. Its units (run) are the
// one-shot groups in partition order, then the two-phase round if any.
type call struct {
	co       *Coordinator
	reqs     []oracle.CommitRequest
	results  []oracle.CommitResult
	deadline time.Time
	singles  [][]int  // by partition: its one-shot requests
	groups   []int    // the partitions with one-shot requests, ascending
	multi    []int    // the requests of the two-phase round
	covers   []uint64 // by index in multi: the request's partition set
	one      [1]oracle.CommitRequest
	oneRes   [1]oracle.CommitResult
	run      func(k int) error // c.unit, bound once
}

// Pools recycling the coordinator's per-call state and per-round frame
// containers. Every backend — the in-process oracle and the wire client
// alike — is done with a container when its call returns; what a prepare
// retains are its slices' rows, which live in one fresh array per round
// (newRound), never pooled. A Commit whose rows live on one partition thus
// allocates only what its partition's CommitBatch returns: 1 allocation
// per transaction in BenchmarkCoordinatorCommit's one-shot case.
var (
	callPool      = sync.Pool{New: func() interface{} { c := new(call); c.run = c.unit; return c }}
	roundPool     = sync.Pool{New: func() interface{} { r := new(crossRound); r.prepare, r.decide = r.prepareUnit, r.decideUnit; return r }}
	commitSubPool = sync.Pool{New: func() interface{} { s := make([]oracle.CommitRequest, 0, 64); return &s }}
	decideSubPool = sync.Pool{New: func() interface{} { s := make([]oracle.Decision, 0, 64); return &s }}
)

// commit routes the requests and runs the call's units; results has one
// entry per request.
func (c *call) commit(co *Coordinator, reqs []oracle.CommitRequest, results []oracle.CommitResult, deadline time.Time) error {
	c.co, c.reqs, c.results, c.deadline = co, reqs, results, deadline
	for len(c.singles) < len(co.parts) {
		c.singles = append(c.singles, nil)
	}
	var nSingles, nCross int64
	var groups uint64
	for i := range reqs {
		if reqs[i].ReadOnly() {
			// §5.1 read-only fast path, unchanged by partitioning.
			results[i] = oracle.CommitResult{Committed: true, CommitTS: reqs[i].StartTS}
			continue
		}
		cover := co.cover(&reqs[i])
		if cover&(cover-1) != 0 {
			nCross++
		} else {
			nSingles++
			if co.cfg.SharedTSO {
				p := bits.TrailingZeros64(cover)
				groups |= cover
				c.singles[p] = append(c.singles[p], i)
				continue
			}
			// A remote partition cannot draw its commit timestamp after
			// its check from the coordinator's clock, so the request takes
			// the two-phase round, which can.
		}
		c.multi = append(c.multi, i)
		c.covers = append(c.covers, cover)
	}
	co.singleTxns.Add(nSingles)
	co.crossTxns.Add(nCross)
	for ; groups != 0; groups &= groups - 1 {
		c.groups = append(c.groups, bits.TrailingZeros64(groups))
	}
	units := len(c.groups)
	if len(c.multi) > 0 {
		units++
	}
	return fanOut(units, c.run)
}

// unit runs the call's unit k: a one-shot group, or the two-phase round.
func (c *call) unit(k int) error {
	if k < len(c.groups) {
		p := c.groups[k]
		return c.co.commitSingles(p, c.reqs, c.singles[p], c.results)
	}
	return c.co.commitCross(c.reqs, c.multi, c.covers, c.results, c.deadline)
}

// release returns the call to its pool, keeping no caller memory alive.
func (c *call) release() {
	for _, p := range c.groups {
		c.singles[p] = c.singles[p][:0]
	}
	c.groups, c.multi, c.covers = c.groups[:0], c.multi[:0], c.covers[:0]
	c.co, c.reqs, c.results = nil, nil, nil
	c.one[0] = oracle.CommitRequest{}
	callPool.Put(c)
}

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

// crossRound is one two-phase round's state, pooled. Its units are the
// covered partitions: prepareUnit and decideUnit run one partition's phase.
type crossRound struct {
	co        *Coordinator
	parts     []int                     // the covered partitions, ascending
	prepReqs  [][]oracle.PrepareRequest // by partition: its prepare slices
	slots     [][]int                   // by partition: each slice's index in multi
	votes     []bool                    // by index in multi
	decisions []oracle.Decision         // by index in multi
	commits   []uint64                  // the start timestamps partition 0 publishes

	mu         sync.Mutex // guards votes and misrouted during the prepare fan-out
	misrouted  bool
	abortsOnly bool // the decide fan-out keeps the commit verdicts back

	prepare, decide func(k int) error // r.prepareUnit, r.decideUnit, bound once
}

// newRound cuts each request of a round into per-partition prepare slices.
// The slices carry no commit timestamp: it is drawn after the votes.
func (co *Coordinator) newRound(reqs []oracle.CommitRequest, multi []int, covers []uint64) *crossRound {
	r := roundPool.Get().(*crossRound)
	r.co = co
	for len(r.prepReqs) < len(co.parts) {
		r.prepReqs = append(r.prepReqs, nil)
		r.slots = append(r.slots, nil)
	}
	// Only the guard rows travel as the read set: the cover includes every
	// check row's partition, so each slice's guard rows are owned there.
	// Under SI there are none, and a read set spanning foreign partitions
	// would trip the server's ownership guard. Every slice's rows are cut
	// from one fresh array, sized here: a prepare keeps them.
	var all uint64
	n := 0
	for k, i := range multi {
		_, guard := co.cfg.Engine.Rows(reqs[i].WriteSet, reqs[i].ReadSet)
		n += len(reqs[i].WriteSet) + len(guard)
		all |= covers[k]
	}
	buf := make([]oracle.RowID, 0, n)
	for k, i := range multi {
		_, guard := co.cfg.Engine.Rows(reqs[i].WriteSet, reqs[i].ReadSet)
		for m := covers[k]; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			pr := oracle.PrepareRequest{StartTS: reqs[i].StartTS}
			buf, pr.WriteSet = sliceRows(buf, co.cfg.Router, reqs[i].WriteSet, p)
			buf, pr.ReadSet = sliceRows(buf, co.cfg.Router, guard, p)
			r.prepReqs[p] = append(r.prepReqs[p], pr)
			r.slots[p] = append(r.slots[p], k)
		}
		r.votes = append(r.votes, true)
	}
	for ; all != 0; all &= all - 1 {
		r.parts = append(r.parts, bits.TrailingZeros64(all))
	}
	return r
}

// release returns the round to its pool, keeping no prepare's rows alive.
func (r *crossRound) release() {
	for _, p := range r.parts {
		clear(r.prepReqs[p])
		r.prepReqs[p], r.slots[p] = r.prepReqs[p][:0], r.slots[p][:0]
	}
	r.parts, r.votes, r.decisions, r.commits = r.parts[:0], r.votes[:0], r.decisions[:0], r.commits[:0]
	r.misrouted, r.abortsOnly = false, false
	r.co = nil
	roundPool.Put(r)
}

// prepareUnit runs phase one on the round's partition k and ANDs its votes
// into the round's. A partition that fails to answer vetoes every
// transaction it covers — aborting more than a serial oracle would is
// always safe, and the client is never acknowledged for a commit that was
// not unanimously prepared. A partition that refuses its slices as
// misrouted parks none of them and likewise vetoes, and the round records
// that one did.
func (r *crossRound) prepareUnit(k int) error {
	p := r.parts[k]
	vs, err := r.co.parts[p].PrepareBatch(r.prepReqs[p])
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if errors.Is(err, ErrMisrouted) {
			r.misrouted = true
		}
		for _, k := range r.slots[p] {
			r.votes[k] = false
		}
		return nil
	}
	for j, k := range r.slots[p] {
		if !vs[j] {
			r.votes[k] = false
		}
	}
	return nil
}

// decideUnit sends the verdicts to the round's partition k; with
// abortsOnly, the commit verdicts stay back.
func (r *crossRound) decideUnit(k int) error {
	p := r.parts[k]
	dp := decideSubPool.Get().(*[]oracle.Decision)
	ds := (*dp)[:0]
	for _, k := range r.slots[p] {
		if !r.abortsOnly || !r.decisions[k].Commit {
			ds = append(ds, r.decisions[k])
		}
	}
	err := r.co.parts[p].DecideBatch(ds)
	*dp = ds[:0]
	decideSubPool.Put(dp)
	return err
}

// commitCross runs one two-phase round for the requests in multi.
//
// The commit timestamps are drawn *after* the votes, by partition 0's
// PublishCommits, which publishes the round's commits in partition 0's
// commit table inside its timestamp critical section and logs them there.
// So every transaction is checked against every commit below its commit
// timestamp, and any snapshot drawn above a commit's timestamp (Begin
// draws at partition 0 too) resolves the commit from partition 0: the
// single oracle's atomic publication, kept at one partition. Aborts need
// no timestamp and are not published; until their decide lands they read
// pending, which readers skip.
//
// The failure rule: a round whose commits partition 0 did not publish
// aborts everywhere; a round whose commits it published stands, so they
// are decided commit even when their record failed, and the error is
// returned after the decides; a round whose publication is in doubt
// (ErrInDoubt) decides only its aborts and leaves its yes votes prepared,
// since an abort could contradict a commit partition 0 published.
//
// A slice refused as misrouted vetoes its transactions like any failed
// prepare: the round aborts them everywhere and then returns ErrMisrouted,
// so a coordinator whose router disagrees with the servers' sees an error
// rather than a stream of aborts.
func (co *Coordinator) commitCross(reqs []oracle.CommitRequest, multi []int, covers []uint64, results []oracle.CommitResult, deadline time.Time) error {
	r := co.newRound(reqs, multi, covers)
	_ = fanOut(len(r.parts), r.prepare) // prepare units veto instead of failing
	misrouted := r.misrouted
	for k, i := range multi {
		r.decisions = append(r.decisions, oracle.Decision{StartTS: reqs[i].StartTS, Commit: r.votes[k]})
		if r.votes[k] {
			r.commits = append(r.commits, reqs[i].StartTS)
		}
	}
	var pubErr error
	if len(r.commits) > 0 {
		var lo uint64
		lo, pubErr = co.parts[0].PublishCommits(r.commits)
		switch {
		case lo != 0:
			for k := range r.decisions {
				if r.decisions[k].Commit {
					r.decisions[k].CommitTS = lo
					lo++
				}
			}
		case errors.Is(pubErr, ErrInDoubt):
			r.abortsOnly = true
		default:
			// Nothing published: abort everything to release the
			// prepared rows, then surface the failure.
			for k := range r.decisions {
				r.decisions[k].Commit = false
			}
		}
	}
	// The verdicts are final (in doubt, nobody reads them): write the
	// results before the decides, which may outlive this call.
	if !r.abortsOnly {
		var commits int64
		for k, i := range multi {
			d := r.decisions[k]
			results[i] = oracle.CommitResult{Committed: d.Commit, CommitTS: d.CommitTS}
			if d.Commit {
				commits++
			}
		}
		co.crossCommits.Add(commits)
		co.crossAborts.Add(int64(len(multi)) - commits)
	}
	decideErr := co.runDecides(r, deadline)
	switch {
	case pubErr != nil:
		return pubErr
	case decideErr != nil:
		return decideErr
	case misrouted:
		return ErrMisrouted
	}
	return nil
}

// runDecides fans the verdicts out and releases the round. A caller whose
// deadline passed while the round was being voted and published is
// released here instead of waiting out the fan-out: the decisions are
// final and partition 0 already answers the commits, so the round moves to
// the background (DrainDecides waits for it) and the caller gets
// oracle.ErrExpired — cooperative cancellation of post-admission work that
// nobody is waiting for.
func (co *Coordinator) runDecides(r *crossRound, deadline time.Time) error {
	if !expired(deadline) {
		err := fanOut(len(r.parts), r.decide)
		r.release()
		return err
	}
	co.expiredDecides.Add(1)
	co.decideWG.Add(1)
	go func() {
		defer co.decideWG.Done()
		err := fanOut(len(r.parts), r.decide)
		r.release()
		if err != nil {
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
// aborted, then unknown (evicted), then pending. Partition 0 publishes a
// round's commits before any snapshot above them is drawn, and readers
// resolve a transaction's fate once per start timestamp, so a snapshot can
// never observe a half-decided transaction — one key committed, another
// still pending.
func (co *Coordinator) QueryBatch(startTSs []uint64) []oracle.TxnStatus {
	out := make([]oracle.TxnStatus, len(startTSs))
	if len(startTSs) == 0 {
		return out
	}
	if len(co.parts) == 1 {
		return co.parts[0].QueryBatch(startTSs)
	}
	answers := make([][]oracle.TxnStatus, len(co.parts))
	_ = fanOut(len(co.parts), func(p int) error {
		answers[p] = co.parts[p].QueryBatch(startTSs)
		return nil
	})
	for i := range out {
		out[i] = mergeStatuses(answers, i)
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
// asks the partitions in order, partition 0 (which holds every round's
// commits) first; a transport failure is reported only when no
// authoritative answer could be obtained.
func (co *Coordinator) ResolveStatus(startTS uint64) (oracle.TxnStatus, error) {
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
	}
}
