package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/tso"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The common set-up, identical on both sides of any comparison. The flush
// policy is part of it: a commit is acknowledged once two of three ledger
// replicas hold its group-commit batch, each append costs the injected
// ledger delay, and a batch is cut at walBatchBytes or walBatchDelay.
//
// Both batching delays are one millisecond, not the 200 µs the system
// defaults to: the coalescer and the WAL cut batches on Go timers, and a Go
// timer under a millisecond fires about 1.06 ms after it was armed whenever
// every scheduler thread is idle, and on time when one is busy. With 200 µs
// and 32 sessions the closed loop had two self-sustaining states — 9.5k
// txn/s with idle threads and late timers, 20k txn/s with busy threads and
// prompt ones — and a run landed in either. From one millisecond up the
// timers read the same in both.
//
// The networked and the partitioned workloads run 128 concurrent callers,
// not 32. With 32 the process slept most of the time, the closed-loop rate
// was 32 / (the sum of the batching timers) whatever the code cost, and CPU
// per transaction read 40 µs or 60 µs from one process to the next,
// depending on how the Go scheduler's threads happened to park. 128 callers
// keep the processors busy (both of them on mixed-zipf, 1.4 on
// write-durable, 0.8 on cross-partition), so throughput answers to CPU
// cost, and they stay inside the ingress gate's default limits (256 in
// flight, 128 queued), so nothing is shed.
const (
	maxProcs         = 2
	conns            = 2 // TCP connections to the in-process server
	callers          = 128
	coalesceMaxBatch = 64
	ledgerReplicas   = 3
	ledgerQuorum     = 2
	ledgerLatency    = 200 * time.Microsecond
	walBatchBytes    = 16 << 10
	walBatchDelay    = time.Millisecond
	coalesceMaxDelay = time.Millisecond
	tsoBlock         = 100_000
	tapSampling      = 1.0 / 16 // mixed-zipf's history tap
	gcInterval       = 250 * time.Millisecond
	preloadPerTxn    = 500
)

// workloadSpec is one workload with its frozen knobs. rateTPS is the
// open-phase arrival rate (40 % of the closed-phase txn_tps measured when
// the benchmark was defined, two significant digits) and sloMS is ten times
// the open-phase txn_p50_us measured then; both stay fixed so later commits
// are compared at the same offered load against the same limit.
// BENCHMARK.json has no place for them, so they are frozen here.
type workloadSpec struct {
	name       string
	why        string
	rows       int64
	sessions   int // concurrent callers, each a goroutine that waits for its reply
	rateTPS    float64
	sloMS      float64
	traceEvery uint64 // trace one transaction in this many during traced slices
	gen        func(rows int64, rng *rand.Rand, n int) *inputs
	build      func(sessions int, in *inputs, lt *ledgerTrace) (*system, error)
}

var workloads = []workloadSpec{
	{
		name: "write-durable",
		why:  "blind-write txns over sessions: netsrv codec, admission, coalescer, flush, wal and tso do the work; oracle decision and read path do almost none",
		rows: 1 << 30, sessions: callers, rateTPS: 13000, sloMS: 20, traceEvery: 1,
		gen: genBlindWrites, build: buildWriteDurable,
	},
	{
		name: "mixed-zipf",
		why:  "paper 6.1 mixed workload, zipfian over 100k rows, bare frames: status lookups beside commits, long read sets, real conflicts on the same netsrv and oracle",
		rows: 100_000, sessions: callers, rateTPS: 4600, sloMS: 22, traceEvery: 1,
		gen:   genMix(workload.MixedWorkload(), func(rows int64) workload.Generator { return workload.NewScrambledZipfian(rows) }),
		build: buildMixedZipf,
	},
	{
		name: "embedded-complex",
		why:  "in-process WSI, complex txns uniform over 1M rows: oracle, txn and kvstore CPU is everything; netsrv and wal are bypassed, so wire or log changes predict no change",
		rows: 1_000_000, sessions: 2, rateTPS: 19000, sloMS: 0.3, traceEvery: 8,
		gen:   genMix(workload.ComplexWorkload(), func(rows int64) workload.Generator { return workload.NewUniform(rows) }),
		build: buildEmbeddedComplex,
	},
	{
		name: "cross-partition",
		why:  "2-partition coordinator with per-partition durable logs, 10% cross txns: route, prepare/decide and decision log dominate; netsrv, txn and kvstore are bypassed",
		rows: 1_000_000, sessions: callers, rateTPS: 23000, sloMS: 9.2, traceEvery: 1,
		gen: genCrossMix(2, 0.10), build: buildCrossPartition,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// outcome is what one executed transaction reports to the harness.
type outcome struct {
	start, commit uint64
	committed     bool
	wrote         bool // the oracle recorded a decision that Query can return
	rowsRead      int
	rowsWritten   int
	err           error // infrastructure failure (transport, shed, expiry)
}

type worker struct {
	tr   *tracer
	exec func(r *request) outcome
	low  atomic.Uint64 // a lower bound on this worker's live and future snapshots
}

// durableStack is one replicated write-ahead log.
type durableStack struct {
	w       *wal.Writer
	ledgers []*tracedLedger
}

func newDurableStack(lt *ledgerTrace) (*durableStack, error) {
	st := &durableStack{}
	ls := make([]wal.Ledger, ledgerReplicas)
	for i := range ls {
		delay, err := newAlarm()
		if err != nil {
			st.close()
			return nil, err
		}
		tl := &tracedLedger{MemLedger: wal.NewMemLedger(), lt: lt, delay: delay}
		st.ledgers = append(st.ledgers, tl)
		ls[i] = tl
	}
	w, err := wal.NewWriter(wal.Config{BatchBytes: walBatchBytes, BatchDelay: walBatchDelay, Quorum: ledgerQuorum}, ls...)
	if err != nil {
		st.close()
		return nil, err
	}
	st.w = w
	return st, nil
}

func (st *durableStack) close() {
	if st.w != nil {
		st.w.Close()
	}
	for _, l := range st.ledgers {
		l.delay.close()
	}
}

// system is one built instance of the program under test, with handles on
// the layers whose exported counters the benchmark reads.
type system struct {
	workers     []*worker
	srv         *netsrv.Server         // nil when netsrv is bypassed
	oracles     []*oracle.StatusOracle // one, or one per partition
	stacks      []*durableStack        // oracle logs first, then the decision log; nil when not durable
	store       *kvstore.Store         // nil when txn/kvstore are bypassed
	coord       *partition.Coordinator // nil unless partitioned
	checker     *history.Streaming     // nil unless the workload taps its history
	stopChecker func()
	gc          *versionGC // nil unless the workload collects versions
	query       func([]uint64) []oracle.TxnStatus
	closers     []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// ready ends set-up: every worker runs one transaction, all at once, so
// each session is known to be live and the server has met every one of them.
func (s *system) ready(in *inputs) error {
	errs := make(chan error, len(s.workers))
	for w, wk := range s.workers {
		go func(w int, wk *worker) { errs <- wk.exec(&in.reqs[w%len(in.reqs)]).err }(w, wk)
	}
	var first error
	for range s.workers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *system) onClose(f func()) { s.closers = append(s.closers, f) }

// sessionArbiter adapts one multiplexed session to txn.Arbiter, so a
// transaction client commits through the session's envelope and admission
// class.
type sessionArbiter struct{ s *netsrv.Session }

func (a sessionArbiter) Begin() (uint64, error) { return a.s.Begin() }
func (a sessionArbiter) Commit(r oracle.CommitRequest) (oracle.CommitResult, error) {
	return a.s.Commit(r)
}
func (a sessionArbiter) Abort(ts uint64) error { return a.s.Abort(ts) }
func (a sessionArbiter) Query(ts uint64) oracle.TxnStatus {
	st, _ := a.s.Query(ts) // a shed lookup degrades to pending, as netsrv.Client.Query does
	return st
}
func (a sessionArbiter) Forget(ts uint64) { _ = a.s.Forget(ts) } // best effort, as netsrv.Client.Forget

// durableServer builds the durable stack behind the gated, coalescing
// front door every networked workload shares.
func durableServer(s *system, lt *ledgerTrace) (addr string, err error) {
	st, err := newDurableStack(lt)
	if err != nil {
		return "", err
	}
	s.stacks = []*durableStack{st}
	s.onClose(st.close)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(tsoBlock, st.w), WAL: st.w})
	if err != nil {
		return "", err
	}
	s.oracles = []*oracle.StatusOracle{so}
	srv := netsrv.NewServer(so)
	srv.Logf = nil
	srv.CoalesceMaxBatch = coalesceMaxBatch
	srv.CoalesceMaxDelay = coalesceMaxDelay
	srv.Ingress = &netsrv.IngressConfig{Tenants: 1}
	srv.DisableTracing = true // traced slices turn it on with SetTracing
	srv.Registry().Register(st.w.MetricsSource())
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.srv = srv
	s.onClose(func() { srv.Close() })
	audit, err := netsrv.Dial(addr)
	if err != nil {
		return "", err
	}
	s.onClose(func() { audit.Close() })
	s.query = audit.QueryBatch
	return addr, nil
}

func (s *system) addTxnWorker(arb txn.Arbiter, in *inputs, tap *history.Tap, exec func(*txn.Client, *tracer, *inputs, *request) outcome) error {
	tr := &tracer{id: len(s.workers)}
	client, err := txn.NewClient(s.store, &tracedArbiter{inner: arb, tr: tr}, txn.Config{Mode: txn.ModeQuery, Tap: tap})
	if err != nil {
		return err
	}
	s.onClose(client.Close)
	wk := &worker{tr: tr}
	var last uint64 // start timestamp of this worker's latest transaction
	wk.exec = func(r *request) outcome {
		wk.low.Store(last) // published before Begin: the next snapshot cannot be older
		o := exec(client, tr, in, r)
		if o.start > last {
			last = o.start
		}
		return o
	}
	s.workers = append(s.workers, wk)
	return nil
}

// versionGC is the store's collector: every gcInterval it prunes the
// versions no live or future snapshot can see, below the minimum of the
// workers' published low-water marks. It resolves commit status against
// the oracle in process, as a collector deployed beside the status oracle
// would; over the wire a pass costs one round trip per version under the
// region lock. Without it a zipfian workload's hot rows grow one version
// per commit and every read resolves them all, so throughput halves within
// seconds and no two slices of a run measure the same system.
type versionGC struct {
	passes, ns, reclaimed atomic.Int64
}

func (s *system) startGC(so *oracle.StatusOracle) error {
	c, err := txn.NewClient(s.store, so, txn.Config{Mode: txn.ModeQuery})
	if err != nil {
		return err
	}
	s.gc = &versionGC{}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(gcInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			low := ^uint64(0)
			for _, w := range s.workers {
				if v := w.low.Load(); v < low {
					low = v
				}
			}
			t0 := time.Now()
			n := c.GCAt(low)
			s.gc.ns.Add(int64(time.Since(t0)))
			s.gc.passes.Add(1)
			s.gc.reclaimed.Add(int64(n))
		}
	}()
	s.onClose(func() {
		close(stop)
		<-done
		c.Close()
	})
	return nil
}

func buildWriteDurable(sessions int, in *inputs, lt *ledgerTrace) (*system, error) {
	s := &system{store: kvstore.New(kvstore.Config{})}
	addr, err := durableServer(s, lt)
	if err != nil {
		s.close()
		return nil, err
	}
	mux, err := netsrv.DialMux(addr, conns)
	if err != nil {
		s.close()
		return nil, err
	}
	s.onClose(func() { mux.Close() })
	for i := 0; i < sessions; i++ {
		if err := s.addTxnWorker(sessionArbiter{mux.Session(0)}, in, nil, execOps); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func buildMixedZipf(sessions int, in *inputs, lt *ledgerTrace) (*system, error) {
	s := &system{store: kvstore.New(kvstore.Config{})}
	addr, err := durableServer(s, lt)
	if err != nil {
		s.close()
		return nil, err
	}
	tap := history.NewTap(0)
	tap.SetSampling(tapSampling)
	s.checker = history.NewStreaming(history.StreamConfig{})
	s.stopChecker = s.checker.Run(tap, 20*time.Millisecond)
	s.onClose(s.stopChecker)
	clients := make([]*netsrv.Client, conns)
	for i := range clients {
		c, err := netsrv.Dial(addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.onClose(func() { c.Close() })
		clients[i] = c
	}
	for i := 0; i < sessions; i++ {
		if err := s.addTxnWorker(clients[i%conns], in, tap, execMultiGet); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := preload(s.workers[0], in); err != nil {
		s.close()
		return nil, err
	}
	if err := s.startGC(s.oracles[0]); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func buildEmbeddedComplex(sessions int, in *inputs, _ *ledgerTrace) (*system, error) {
	sys, err := core.New(core.Options{Engine: core.WSI})
	if err != nil {
		return nil, err
	}
	s := &system{store: sys.Store, oracles: []*oracle.StatusOracle{sys.Oracle}, query: sys.Oracle.QueryBatch}
	s.onClose(sys.Close)
	for i := 0; i < sessions; i++ {
		if err := s.addTxnWorker(sys.Oracle, in, nil, execOps); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := preload(s.workers[0], in); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func buildCrossPartition(sessions int, in *inputs, lt *ledgerTrace) (*system, error) {
	const parts = 2
	s := &system{}
	for i := 0; i <= parts; i++ { // one log per partition, then the decision log
		st, err := newDurableStack(lt)
		if err != nil {
			s.close()
			return nil, err
		}
		s.stacks = append(s.stacks, st)
		s.onClose(st.close)
	}
	lc, err := partition.NewLocal(partition.LocalConfig{
		Partitions: parts,
		Engine:     oracle.WSI,
		Router:     partition.NewEvenRangeRouter(parts, uint64(len(in.rowIDs))),
		WALFor:     func(i int) *wal.Writer { return s.stacks[i].w },
		TSOBatch:   tsoBlock,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = lc.Coordinator
	s.oracles = lc.Partitions
	s.query = lc.Coordinator.QueryBatch
	s.onClose(lc.Coordinator.Close)
	for i := 0; i < sessions; i++ {
		tr := &tracer{id: i}
		wk := &worker{tr: tr}
		wk.exec = func(r *request) outcome { return execCoordinator(lc.Coordinator, tr, in, r) }
		s.workers = append(s.workers, wk)
	}
	return s, nil
}

// preload writes every row once through ordinary transactions, so readers
// resolve the preloaded versions against the oracle like any other.
func preload(w *worker, in *inputs) error {
	w.tr.startTxn(false, 0)
	for lo := 0; lo < len(in.keys); lo += preloadPerTxn {
		hi := lo + preloadPerTxn
		if hi > len(in.keys) {
			hi = len(in.keys)
		}
		r := request{}
		for row := lo; row < hi; row++ {
			r.ops = append(r.ops, op{row: int32(row), write: true})
		}
		if out := w.exec(&r); out.err != nil || !out.committed {
			return fmt.Errorf("preload rows %d-%d: committed=%v err=%v", lo, hi, out.committed, out.err)
		}
	}
	return nil
}

var rowValue = []byte("8 bytes.")

func finish(tx *txn.Txn, tr *tracer, out outcome) outcome {
	s := tr.begin(spTxnCommit)
	err := tx.Commit()
	tr.end(s)
	out.start = tx.StartTS()
	switch {
	case err == nil:
		out.committed = true
		out.commit = tx.CommitTS()
	case errors.Is(err, txn.ErrConflict):
	default:
		out.err = err
	}
	return out
}

// execOps replays a request op by op: Get for a read, Put for a write.
func execOps(c *txn.Client, tr *tracer, in *inputs, r *request) outcome {
	var out outcome
	s := tr.begin(spTxnBegin)
	tx, err := c.Begin()
	tr.end(s)
	if err != nil {
		return outcome{err: err}
	}
	for _, o := range r.ops {
		if o.write {
			s := tr.begin(spTxnPut)
			err = tx.Put(in.keys[o.row], rowValue)
			tr.end(s)
			out.rowsWritten++
		} else {
			s := tr.begin(spTxnRead)
			_, _, err = tx.Get(in.keys[o.row])
			tr.end(s)
			out.rowsRead++
		}
		if err != nil {
			return outcome{err: err}
		}
	}
	out.wrote = out.rowsWritten > 0
	return finish(tx, tr, out)
}

// execMultiGet reads a request's whole read set in one GetMulti (one
// batched status lookup on the wire), then writes, then commits.
func execMultiGet(c *txn.Client, tr *tracer, in *inputs, r *request) outcome {
	if len(r.reads) == 0 { // preload and write-only transactions
		return execOps(c, tr, in, r)
	}
	var out outcome
	s := tr.begin(spTxnBegin)
	tx, err := c.Begin()
	tr.end(s)
	if err != nil {
		return outcome{err: err}
	}
	keys := make([]string, len(r.reads))
	for i, row := range r.reads {
		keys[i] = in.keys[row]
	}
	s = tr.begin(spTxnRead)
	_, _, err = tx.GetMulti(keys)
	tr.end(s)
	if err != nil {
		return outcome{err: err}
	}
	out.rowsRead = len(keys)
	for _, row := range r.writes {
		s := tr.begin(spTxnPut)
		err = tx.Put(in.keys[row], rowValue)
		tr.end(s)
		if err != nil {
			return outcome{err: err}
		}
	}
	out.rowsWritten = len(r.writes)
	out.wrote = out.rowsWritten > 0
	return finish(tx, tr, out)
}

// execCoordinator submits a request's row sets straight to the partition
// coordinator: Begin, then Commit.
func execCoordinator(co *partition.Coordinator, tr *tracer, in *inputs, r *request) outcome {
	s := tr.begin(spCoordBegin)
	ts, err := co.Begin()
	tr.end(s)
	if err != nil {
		return outcome{err: err}
	}
	req := oracle.CommitRequest{StartTS: ts}
	for _, row := range r.writes {
		req.WriteSet = append(req.WriteSet, in.rowIDs[row])
	}
	for _, row := range r.reads {
		req.ReadSet = append(req.ReadSet, in.rowIDs[row])
	}
	s = tr.begin(spCoordCommit)
	res, err := co.Commit(req)
	tr.end(s)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{
		start: ts, commit: res.CommitTS, committed: res.Committed,
		wrote: len(req.WriteSet) > 0, rowsRead: len(r.reads), rowsWritten: len(r.writes),
	}
}
