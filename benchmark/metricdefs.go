package main

// metricDef names one metric with its unit and which direction is better.
// BENCHMARK.json lists the same metrics in the same order (the smoke test
// checks that), and adds each end-to-end metric's regression bound.
type metricDef struct {
	name, unit, better string
}

// What a user of the status oracle sees. Measured with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"txn_tps", "txn/s", "higher"},
	{"txn_p50_us", "us", "lower"},
	{"slo_ok_frac", "ratio", "higher"},
	{"cpu_us_per_txn", "us", "lower"},
	{"allocs_per_txn", "count", "lower"},
	{"alloc_bytes_per_txn", "B", "lower"},
}

// The per-layer ledger, from a traced run. README.md says which end-to-end
// metric each should move, and on which workload.
var perLayerMetrics = []metricDef{
	{"txn.begin_us_mean", "us", "lower"},
	{"txn.read_us_mean", "us", "lower"},
	{"txn.put_us_mean", "us", "lower"},
	{"txn.commit_us_mean", "us", "lower"},
	{"txn.commit_us_p99", "us", "lower"},
	{"txn.self_us_per_txn", "us", "lower"},
	{"txn.lookups_per_row_read", "count", "lower"},

	{"netsrv.begin_rtt_us_p50", "us", "lower"},
	{"netsrv.commit_rtt_us_p50", "us", "lower"},
	{"netsrv.commit_rtt_us_p99", "us", "lower"},
	{"netsrv.query_rtt_us_p50", "us", "lower"},
	{"netsrv.rpcs_per_txn", "count", "lower"},
	{"netsrv.admission_wait_us_p99", "us", "lower"},
	{"netsrv.coalesce_wait_us_p50", "us", "lower"},
	{"netsrv.coalesce_wait_us_p99", "us", "lower"},
	{"netsrv.decide_us_p50", "us", "lower"},
	{"netsrv.wal_durable_us_p50", "us", "lower"},
	{"netsrv.flush_us_p50", "us", "lower"},
	{"netsrv.flush_us_p99", "us", "lower"},
	{"netsrv.stage_total_us_p50", "us", "lower"},
	{"netsrv.wire_self_us_p50", "us", "lower"},
	{"netsrv.commit_batch_avg", "count", "higher"},
	{"netsrv.query_batch_avg", "count", "higher"},
	{"netsrv.admitted", "count", "higher"},
	{"netsrv.shed", "count", "lower"},
	{"netsrv.expired", "count", "lower"},

	{"oracle.commit_batch_ns_per_txn", "ns", "lower"},
	{"oracle.commit_batch_allocs_per_txn", "count", "lower"},
	{"oracle.query_batch_ns_per_lookup", "ns", "lower"},
	{"oracle.batches", "count", "lower"},
	{"oracle.batch_size_avg", "count", "higher"},
	{"oracle.query_batch_size_avg", "count", "higher"},
	{"oracle.conflict_aborts", "count", "lower"},
	{"oracle.retained_rows", "count", "lower"},
	{"oracle.table_load_factor", "ratio", "lower"},

	{"tso.next_block_ns", "ns", "lower"},
	{"tso.reservation_records", "count", "lower"},

	{"wal.ledger_appends_per_txn", "count", "lower"},
	{"wal.ledger_append_us_p50", "us", "lower"},
	{"wal.batch_bytes_avg", "B", "higher"},
	{"wal.entries_per_batch_avg", "count", "higher"},
	{"wal.bytes_per_txn", "B", "lower"},
	{"wal.quorum_failures", "count", "lower"},
	{"wal.append_all_ns_per_entry", "ns", "lower"},
	{"wal.file_append_fsync_us_p50", "us", "lower"},

	{"kvstore.multiget_ns_per_key", "ns", "lower"},
	{"kvstore.put_ns", "ns", "lower"},
	{"kvstore.versions", "count", "lower"},
	{"kvstore.gc_pass_ms_avg", "ms", "lower"},
	{"kvstore.gc_reclaimed_per_txn", "count", "higher"},

	{"partition.commit_call_us_p50", "us", "lower"},
	{"partition.commit_call_us_p99", "us", "lower"},
	{"partition.cross_ratio", "ratio", "lower"},
	{"partition.prepares_per_txn", "count", "lower"},
	{"partition.decide_wait_us_avg", "us", "lower"},
	{"partition.cross_aborts", "count", "lower"},
	{"partition.expired_decides", "count", "lower"},

	{"ha.recover_ns_per_record", "ns", "lower"},
	{"ha.replayed_records", "count", "lower"},
	{"ha.checkpoint_ms", "ms", "lower"},

	{"host.steal_frac", "ratio", "lower"},
	{"gen.late_frac", "ratio", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"ledger.cpu_unattributed_frac", "ratio", "lower"},
	{"ledger.latency_unattributed_frac", "ratio", "lower"},

	// End-to-end by nature, but not gated. The tail moves with every
	// hiccup of a shared two-processor sandbox (its spread over ten seeds
	// was 27 % on mixed-zipf and 170 % on embedded-complex), and the other
	// three are zero on some workload, where a relative bound means
	// nothing. Reported here under their own names; README.md has more.
	{"txn_p99_us", "us", "lower"},
	{"abort_frac", "ratio", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"wal_bytes_per_txn", "B", "lower"},
	{"audit.lost_acked", "count", "lower"},
	{"audit.anomalies", "count", "lower"},
	{"audit.dirty_read_reports", "count", "lower"},
}

func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}
