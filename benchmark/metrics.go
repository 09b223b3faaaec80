package main

// metricDef names a metric and its unit. BENCHMARK.json at the root of
// the repository lists the same names with direction and bound; a test
// keeps the two in step. README.md says what each one measures, which
// layer it belongs to and which end-to-end metric it should move.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Untraced runs report
// these, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txns_per_s", "txn/s"},
	{"page_io_per_txn", "io/txn"},
	{"live_heap_mb", "MB"},
	{"commit_visible_p50_ms", "ms"},
	{"commit_visible_p95_ms", "ms"},
}

// perLayer is the ledger: one or more lines per package, each taken
// from outside it. Traced runs report these, on every workload; a
// layer the workload bypasses reads zero.
var perLayer = []metricDef{
	{"core.build_ms", "ms"},
	{"core.viewsets_explored", "count"},
	{"sqlparser.ns_per_stmt", "ns"},
	{"delta.coalesce_ns_per_txn", "ns"},
	{"delta.annihilated_share", "share"},
	{"maintain.self_ns_per_txn", "ns"},
	{"maintain.query_io_per_txn", "io/txn"},
	{"maintain.view_io_per_txn", "io/txn"},
	{"maintain.root_io_per_txn", "io/txn"},
	{"maintain.base_io_per_txn", "io/txn"},
	{"maintain.view_rows_held", "count"},
	{"storage.index_reads_per_txn", "io/txn"},
	{"storage.index_writes_per_txn", "io/txn"},
	{"storage.page_reads_per_txn", "io/txn"},
	{"storage.page_writes_per_txn", "io/txn"},
	{"ic.rolled_back", "count"},
	{"ic.rollback_extra_ns", "ns"},
	{"wal.commit_wait_ns_per_window", "ns"},
	{"wal.bytes_per_txn", "B/txn"},
	{"wal.fsyncs_per_window", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.recovery_s", "s"},
	{"server.post_txn_p50_ms", "ms"},
	{"server.hook_clone_ns_per_window", "ns"},
	{"server.publish_lag_p50_ms", "ms"},
	{"server.sse_delivery_p50_ms", "ms"},
	{"server.read_point_p50_ms", "ms"},
	{"server.read_scan_p50_ms", "ms"},
	{"server.queue_depth_max", "count"},
	{"server.commit_visible_p99_ms", "ms"},
	{"trace.txns_per_s", "txn/s"},
	{"trace.ledger_coverage", "share"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}
