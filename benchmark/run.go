package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
)

// runConfig is one run's shape. The driver's --seconds splits evenly into
// the closed and the open phase; everything else is fixed.
type runConfig struct {
	spec      *workloadSpec
	seed      int64
	trace     bool
	traceOut  string
	rows      int64
	pool      int
	setups    int // set-up is repeated at least this many times, and until setupFor has been spent on it (at most maxSetups times); its median is reported
	setupFor  time.Duration
	warmup    time.Duration // discarded closed-loop load; the checkpoint is taken half-way through it
	closedDur time.Duration // untraced closed phase; the traced pass runs closedDur+openDur
	slice     time.Duration // closed phases are cut into slices this long; a traced pass traces every other one
	openLead  time.Duration // unmeasured start of every open phase
	openDur   time.Duration
	lateDur   time.Duration // open phase of a traced run, for the generator's lateness only
	driverDur time.Duration
}

func newRunConfig(spec *workloadSpec, seed int64, seconds int, trace bool) runConfig {
	half := time.Duration(seconds) * time.Second / 2
	cfg := runConfig{
		spec: spec, seed: seed, trace: trace, rows: spec.rows, pool: poolSize,
		setups: 3, setupFor: time.Second, warmup: 2 * time.Second, closedDur: half, slice: time.Second, openLead: time.Second, openDur: half,
		lateDur: 3 * time.Second, driverDur: 500 * time.Millisecond,
	}
	if trace {
		cfg.setups, cfg.setupFor = 1, 0
		// Short slices, so that whatever recurs every second or two (a
		// garbage collection) falls on traced and untraced slices alike,
		// and many of them, so that the two means resolve a percent.
		cfg.slice = 100 * time.Millisecond
	}
	return cfg
}

// maxSetups bounds the repetitions of a set-up that takes microseconds.
const maxSetups = 50

// result is one run's outcome. values holds everything the run observed,
// by metric name: an untraced run fills the end-to-end metrics, a traced
// one the per-layer metrics, and both the few that need no trace.
type result struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
	samples           map[string]int64     // sample count behind each percentile or median
	series            map[string][]float64 // per closed-phase slice, open-phase window or set-up, for the -json record
	problems          []string             // what makes the run incorrect
	warnings          []string             // what makes its numbers doubtful; -agree rejects them
}

// maxLateFrac is the share of open-phase sends that may leave more than a
// millisecond late before the run's latencies are doubted. The generator
// shares the two processors with the system under test, so some lateness is
// the system's own doing: on mixed-zipf a collector pass holds one processor
// for 20 ms of every 250, and 1.4 to 5.5 % of sends wait behind it.
const maxLateFrac = 0.10

// maxStealFrac is the share of the machine's CPU time the host may take
// away during the measured phases before the run's numbers are doubted.
const maxStealFrac = 0.02

// counters is a snapshot of every cumulative count the layers export.
type counters struct {
	oracle                                       oracle.Stats // summed over partitions
	commitBatchTxns, queryBatchLookups           float64      // sum of avg × count
	decideWaitNS                                 float64      // sum of avg × decides
	walEntries, walBatches, walBytes, walQuorumF int64
	ledgerAppends, ledgerBytes0                  int64
	admitted, shed, expired                      int64
	gcPasses, gcNS, gcReclaimed                  int64
	crossTxns, singleTxns, crossAborts, expDec   int64
}

func snapshot(s *system) counters {
	var c counters
	for _, so := range s.oracles {
		st := so.Stats()
		c.oracle.Commits += st.Commits
		c.oracle.ReadOnlyCommits += st.ReadOnlyCommits
		c.oracle.ConflictAborts += st.ConflictAborts
		c.oracle.TmaxAborts += st.TmaxAborts
		c.oracle.Batches += st.Batches
		c.oracle.Queries += st.Queries
		c.oracle.QueryBatches += st.QueryBatches
		c.oracle.Prepares += st.Prepares
		c.oracle.Decides += st.Decides
		c.commitBatchTxns += st.BatchSizeAvg * float64(st.Batches)
		c.queryBatchLookups += st.QueryBatchSizeAvg * float64(st.QueryBatches)
		c.decideWaitNS += st.DecideWaitAvg * float64(st.Decides)
	}
	for _, st := range s.stacks {
		st.w.MetricsSource()(func(m metrics.Sample) {
			switch m.Name {
			case "wal_entries_appended_total":
				c.walEntries += m.Value
			case "wal_batches_flushed_total":
				c.walBatches += m.Value
			case "wal_bytes_flushed_total":
				c.walBytes += m.Value
			case "wal_quorum_failures_total":
				c.walQuorumF += m.Value
			}
		})
		for i, l := range st.ledgers {
			c.ledgerAppends += l.appends.Load()
			if i == 0 {
				c.ledgerBytes0 += l.bytes.Load()
			}
		}
	}
	if s.srv != nil {
		for _, m := range s.srv.Registry().Gather() {
			switch {
			case strings.HasPrefix(m.Name, "netsrv_ingress_admitted_total"):
				c.admitted += m.Value
			case strings.HasPrefix(m.Name, "netsrv_ingress_shed_total"), strings.HasPrefix(m.Name, "netsrv_ingress_rate_limited_total"):
				c.shed += m.Value
			case strings.HasPrefix(m.Name, "netsrv_ingress_expired_total"):
				c.expired += m.Value
			}
		}
	}
	if s.gc != nil {
		c.gcPasses, c.gcNS, c.gcReclaimed = s.gc.passes.Load(), s.gc.ns.Load(), s.gc.reclaimed.Load()
	}
	if s.coord != nil {
		st := s.coord.Stats()
		c.crossTxns, c.singleTxns, c.crossAborts, c.expDec = st.CrossTxns, st.SingleTxns, st.CrossAborts, st.ExpiredDecides
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// run executes one workload once and reports its metrics.
func run(cfg runConfig) (*result, error) {
	spec := cfg.spec
	in := spec.gen(cfg.rows, rand.New(rand.NewSource(cfg.seed)), cfg.pool)
	lt := &ledgerTrace{}

	var sys *system
	var setups []float64
	for spent := time.Duration(0); len(setups) < cfg.setups || (spent < cfg.setupFor && len(setups) < maxSetups); {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if sys, err = spec.build(spec.sessions, in, lt); err == nil {
			err = sys.ready(in)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()
	h, err := newHarness(spec, sys, in, lt)
	if err != nil {
		return nil, err
	}
	defer h.close()

	res := &result{values: map[string]float64{}, samples: map[string]int64{}, series: map[string][]float64{}}
	// The checkpoint falls inside the warm-up, so the commits on either
	// side of it are measured ones' neighbours and its garbage is collected
	// before measuring starts.
	h.closed(cfg.warmup/2, cfg.slice, false)
	ckpt, err := checkpoint(sys)
	if err != nil {
		return nil, err
	}
	h.closed(cfg.warmup/2, cfg.slice, false)

	steal0, measureStart := hostSteal(), time.Now()
	if !cfg.trace {
		before := snapshot(sys)
		closed := h.closed(cfg.closedDur, cfg.slice, false)
		after := snapshot(sys)
		open := h.open(spec.rateTPS, cfg.openLead, cfg.openDur)
		res.stolen(steal0, measureStart)
		au, err := audit(sys, append(closed.acks, open.acks...))
		if err != nil {
			return nil, err
		}
		res.endToEnd(cfg, median(setups), closed, open)
		res.series["setup_s"], res.samples["setup_s"] = setups, int64(len(setups))
		res.values["wal_bytes_per_txn"] = ratio(float64(after.ledgerBytes0-before.ledgerBytes0), float64(closed.committed))
		res.values["ha.checkpoint_ms"] = ckpt
		res.finish(au, closed, open)
		return res, nil
	}

	before := snapshot(sys)
	closed := h.closed(cfg.closedDur+cfg.openDur, cfg.slice, true)
	after := snapshot(sys)
	open := h.open(spec.rateTPS, cfg.openLead, cfg.lateDur)
	res.stolen(steal0, measureStart)
	au, err := audit(sys, append(closed.acks, open.acks...))
	if err != nil {
		return nil, err
	}
	var tracers []*tracer
	groups := [][]span{lt.spans}
	for _, w := range sys.workers {
		tracers = append(tracers, w.tr)
		groups = append(groups, w.tr.spans)
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, tracers, lt.spans); err != nil {
			return nil, err
		}
	}
	dr, err := runDrivers(cfg, sys, in, before, after)
	if err != nil {
		return nil, err
	}
	res.perLayer(cfg, sys, aggregate(groups...), before, after, closed, open, dr, au, ckpt)
	res.finish(au, closed, open)
	return res, nil
}

// stolen records the share of the machine's CPU time the hypervisor took
// away between since and now, and doubts the run when it was much.
func (r *result) stolen(steal0 time.Duration, since time.Time) {
	frac := ratio(float64(hostSteal()-steal0), float64(time.Since(since))*float64(runtime.NumCPU()))
	r.values["host.steal_frac"] = frac
	if frac > maxStealFrac {
		r.warnings = append(r.warnings, fmt.Sprintf("the host took %.3f of this machine's CPU time away during the measured phases", frac))
	}
}

// finish fills what both modes share: the attempted/failed counts, the
// verdict and the generator check.
func (r *result) finish(au *auditReport, closed, open *phaseStats) {
	r.attempted = closed.attempted + open.attempted
	r.failed = closed.failed + open.failed + au.mismatched + au.lostAcked
	p50, p99 := open.windowQuantile(0.50), open.windowQuantile(0.99)
	var decided int64
	for _, win := range open.windows {
		decided += int64(len(win))
	}
	r.values["txn_p50_us"] = us(median(p50))
	r.values["txn_p99_us"] = us(median(p99))
	r.samples["txn_p50_us"], r.samples["txn_p99_us"] = decided, decided
	r.series["txn_p50_ns"], r.series["txn_p99_ns"] = p50, p99
	lateFrac := fracAbove(open.late, int64(time.Millisecond))
	r.values["gen.late_frac"] = lateFrac
	r.values["gen.late_p99_us"] = quantile(open.late, 0.99) / 1e3
	r.values["failed_frac"] = ratio(float64(r.failed), float64(r.attempted))
	r.values["abort_frac"] = ratio(float64(closed.aborted), float64(closed.committed+closed.aborted))
	r.values["audit.lost_acked"] = float64(au.lostAcked)
	r.values["audit.anomalies"] = float64(au.anomalies)
	r.values["audit.dirty_read_reports"] = float64(au.dirtyReads)
	r.samples["gen.late_p99_us"] = int64(len(open.late))
	for _, err := range []error{closed.firstErr, open.firstErr} {
		if err != nil {
			r.problems = append(r.problems, "transaction failed: "+err.Error())
		}
	}
	r.problems = append(r.problems, au.problems...)
	if lateFrac > maxLateFrac {
		r.warnings = append(r.warnings, fmt.Sprintf("generator ran late: %.4f of open-phase sends were more than 1 ms late", lateFrac))
	}
	r.correct = r.failed == 0 && len(r.problems) == 0
}

// endToEnd computes what a user of the system sees, tracing off.
func (r *result) endToEnd(cfg runConfig, setupS float64, closed, open *phaseStats) {
	committed := float64(closed.committed)
	m := r.values
	m["setup_s"] = setupS
	m["txn_tps"] = ratio(committed, closed.elapsed.Seconds())
	m["slo_ok_frac"] = ratio(float64(open.within(int64(cfg.spec.sloMS*1e6))), float64(open.measured))
	m["cpu_us_per_txn"] = us(ratio(float64(closed.cpuNS), committed))
	m["allocs_per_txn"] = ratio(float64(closed.mallocs), committed)
	m["alloc_bytes_per_txn"] = ratio(float64(closed.allocBytes), committed)
	r.samples["slo_ok_frac"] = open.measured
	r.series["txn_tps"] = closed.rates()
}

func us(ns float64) float64 { return ns / 1e3 }

// perLayer computes the per-layer ledger from a traced run: spans from the
// traced slices, counter deltas over the whole closed pass, and the
// standalone drivers.
func (r *result) perLayer(cfg runConfig, sys *system, agg [numSpanKinds]spanAgg, c0, c1 counters,
	closed, open *phaseStats, dr *driverReport, au *auditReport, ckptMS float64) {
	m := r.values
	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // a bypassed layer reports zero, by name
		}
	}
	decided := float64(closed.committed + closed.aborted)
	committed := float64(closed.committed)
	traced := float64(agg[spTxn].count)
	pct := func(name string, k spanKind, q float64) {
		m[name] = us(quantile(agg[k].durs, q))
		r.samples[name] = agg[k].count
	}

	if sys.store != nil {
		m["txn.begin_us_mean"] = us(agg[spTxnBegin].mean())
		m["txn.read_us_mean"] = us(agg[spTxnRead].mean())
		m["txn.put_us_mean"] = us(agg[spTxnPut].mean())
		m["txn.commit_us_mean"] = us(agg[spTxnCommit].mean())
		pct("txn.commit_us_p99", spTxnCommit, 0.99)
		self := agg[spTxnBegin].self + agg[spTxnRead].self + agg[spTxnPut].self + agg[spTxnCommit].self
		m["txn.self_us_per_txn"] = us(ratio(float64(self), traced))
		m["txn.lookups_per_row_read"] = ratio(float64(c1.oracle.Queries-c0.oracle.Queries), float64(closed.rowsRead))
		m["kvstore.multiget_ns_per_key"] = dr.kvMultigetNS
		m["kvstore.put_ns"] = dr.kvPutNS
		m["kvstore.versions"] = float64(sys.store.VersionCount())
		m["kvstore.gc_pass_ms_avg"] = ratio(float64(c1.gcNS-c0.gcNS)/1e6, float64(c1.gcPasses-c0.gcPasses))
		m["kvstore.gc_reclaimed_per_txn"] = ratio(float64(c1.gcReclaimed-c0.gcReclaimed), committed)
	}

	if sys.srv != nil {
		pct("netsrv.begin_rtt_us_p50", spArbBegin, 0.50)
		pct("netsrv.commit_rtt_us_p50", spArbCommit, 0.50)
		pct("netsrv.commit_rtt_us_p99", spArbCommit, 0.99)
		pct("netsrv.query_rtt_us_p50", spArbQuery, 0.50)
		rpcs := agg[spArbBegin].count + agg[spArbCommit].count + agg[spArbQuery].count
		m["netsrv.rpcs_per_txn"] = ratio(float64(rpcs), traced)
		stage := map[string]metrics.HistogramSummary{}
		for _, s := range sys.srv.Registry().Gather() {
			if s.Kind == metrics.KindHistogram && strings.HasSuffix(s.Name, `{op="commit"}`) {
				stage[strings.TrimSuffix(strings.TrimPrefix(s.Name, "netsrv_stage_"), `_ns{op="commit"}`)] = s.Hist
			}
		}
		stagePct := func(name, key string, p99 bool) {
			h := stage[key]
			v := h.P50
			if p99 {
				v = h.P99
			}
			m[name] = us(float64(v))
			r.samples[name] = h.Count
		}
		stagePct("netsrv.admission_wait_us_p99", "admission_wait", true)
		stagePct("netsrv.coalesce_wait_us_p50", "coalesce_wait", false)
		stagePct("netsrv.coalesce_wait_us_p99", "coalesce_wait", true)
		stagePct("netsrv.decide_us_p50", "decide", false)
		stagePct("netsrv.wal_durable_us_p50", "wal_durable", false)
		stagePct("netsrv.flush_us_p50", "flush", false)
		stagePct("netsrv.flush_us_p99", "flush", true)
		stagePct("netsrv.stage_total_us_p50", "total", false)
		m["netsrv.wire_self_us_p50"] = m["netsrv.commit_rtt_us_p50"] - m["netsrv.stage_total_us_p50"]
		m["netsrv.commit_batch_avg"] = ratio(c1.commitBatchTxns-c0.commitBatchTxns, float64(c1.oracle.Batches-c0.oracle.Batches))
		m["netsrv.query_batch_avg"] = ratio(c1.queryBatchLookups-c0.queryBatchLookups, float64(c1.oracle.QueryBatches-c0.oracle.QueryBatches))
		m["netsrv.admitted"] = float64(c1.admitted - c0.admitted)
		m["netsrv.shed"] = float64(c1.shed - c0.shed)
		m["netsrv.expired"] = float64(c1.expired - c0.expired)
	}

	batches := float64(c1.oracle.Batches - c0.oracle.Batches)
	m["oracle.commit_batch_ns_per_txn"] = dr.oracleCommitNS
	m["oracle.commit_batch_allocs_per_txn"] = dr.oracleCommitAllocs
	m["oracle.query_batch_ns_per_lookup"] = dr.oracleQueryNS
	m["oracle.batches"] = batches
	m["oracle.batch_size_avg"] = ratio(c1.commitBatchTxns-c0.commitBatchTxns, batches)
	m["oracle.query_batch_size_avg"] = ratio(c1.queryBatchLookups-c0.queryBatchLookups, float64(c1.oracle.QueryBatches-c0.oracle.QueryBatches))
	m["oracle.conflict_aborts"] = float64(c1.oracle.ConflictAborts - c0.oracle.ConflictAborts)
	var retained int
	var load float64
	for _, so := range sys.oracles {
		retained += so.RetainedRows()
		load += so.Stats().TableLoadFactor / float64(len(sys.oracles))
	}
	m["oracle.retained_rows"] = float64(retained)
	m["oracle.table_load_factor"] = load
	m["tso.next_block_ns"] = dr.tsoNextBlockNS
	m["tso.reservation_records"] = float64(au.tsoRecords)

	walEntries := float64(c1.walEntries - c0.walEntries)
	walBatches := float64(c1.walBatches - c0.walBatches)
	if len(sys.stacks) > 0 {
		m["wal.ledger_appends_per_txn"] = ratio(float64(c1.ledgerAppends-c0.ledgerAppends), committed)
		pct("wal.ledger_append_us_p50", spLedgerAppend, 0.50)
		m["wal.batch_bytes_avg"] = ratio(float64(c1.walBytes-c0.walBytes), walBatches)
		m["wal.entries_per_batch_avg"] = ratio(walEntries, walBatches)
		m["wal.bytes_per_txn"] = ratio(float64(c1.walBytes-c0.walBytes), committed)
		m["wal.quorum_failures"] = float64(c1.walQuorumF - c0.walQuorumF)
		m["wal.append_all_ns_per_entry"] = dr.walAppendAllNS
		m["wal.file_append_fsync_us_p50"] = dr.walFsyncUSP50
		r.samples["wal.file_append_fsync_us_p50"] = dr.walFsyncSamples
		m["wal_bytes_per_txn"] = ratio(float64(c1.ledgerBytes0-c0.ledgerBytes0), committed)
		m["ha.recover_ns_per_record"] = ratio(float64(au.recoveryNS), float64(au.replayed))
		m["ha.replayed_records"] = float64(au.replayed)
		m["ha.checkpoint_ms"] = ckptMS
	}

	if sys.coord != nil {
		pct("partition.commit_call_us_p50", spCoordCommit, 0.50)
		pct("partition.commit_call_us_p99", spCoordCommit, 0.99)
		cross := float64(c1.crossTxns - c0.crossTxns)
		m["partition.cross_ratio"] = ratio(cross, cross+float64(c1.singleTxns-c0.singleTxns))
		m["partition.prepares_per_txn"] = ratio(float64(c1.oracle.Prepares-c0.oracle.Prepares), decided)
		m["partition.decide_wait_us_avg"] = us(ratio(c1.decideWaitNS-c0.decideWaitNS, float64(c1.oracle.Decides-c0.oracle.Decides)))
		m["partition.cross_aborts"] = float64(c1.crossAborts - c0.crossAborts)
		m["partition.expired_decides"] = float64(c1.expDec - c0.expDec)
	}

	r.series["txn_tps"] = closed.rates()
	untraced, tracedRates := byParity(r.series["txn_tps"])
	m["trace.overhead_frac"] = 1 - ratio(mean(tracedRates), mean(untraced))
	r.samples["trace.overhead_frac"] = int64(len(tracedRates))

	// CPU the standalone drivers account for, per decided transaction.
	lookups := ratio(float64(c1.oracle.Queries-c0.oracle.Queries), decided)
	standalone := dr.oracleCommitNS + dr.oracleQueryNS*lookups +
		dr.tsoNextBlockNS*ratio(batches, decided) +
		dr.walAppendAllNS*ratio(walEntries, decided) +
		dr.kvMultigetNS*ratio(float64(closed.rowsRead), decided) +
		dr.kvPutNS*ratio(float64(closed.rowsWritten), decided)
	cpuPerTxn := ratio(float64(closed.cpuNS), decided)
	m["ledger.cpu_unattributed_frac"] = 1 - ratio(standalone, cpuPerTxn)
	// Latency no span on the blocking path covers: the root span's self time.
	m["ledger.latency_unattributed_frac"] = ratio(float64(agg[spTxn].self), float64(agg[spTxn].sum))
	r.samples["ledger.latency_unattributed_frac"] = agg[spTxn].count
}
