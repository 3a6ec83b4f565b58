package main

// metricDef names one reported number. The tables below are the
// benchmark's contract with BENCHMARK.json (a test keeps the two in
// step): Gated end-to-end metrics are the file's end_to_end list, with
// the bound by which each may worsen; perLayer is its per_layer list.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median the metric may worsen by
	Gated  bool    // reported to the driver and judged by -compare
}

// endToEnd is what a user of the cluster sees, all taken on the
// untraced pass. Gated rows go to the acceptance driver and decide
// -compare's exit status; rows with a bound but no gate are judged by
// -compare as advisory. Only what the cluster consumes per acknowledged
// batch is gated — fsyncs, allocation, live heap — plus set-up time:
// those repeat to within a percent. The timings do not. This VM's disk
// flush latency and memory speed move by a factor of up to two over tens
// of minutes, and by a quarter within one (README, "Host shape and
// noise"), so no bound the driver's contract allows (at most 25%) holds
// for a wall-clock or CPU-time row; they are printed by every run with
// that caveat instead. ack_ms_p50 and batches_per_s are medians over
// about twenty consecutive slices of the timed batches (see segments);
// their whole-run forms sit beside them. ack_ms_p99 is undefined on
// ckpt-default (fewer than 1,000 timed batches), ckpt_stall_ms_p50
// exists on ckpt-default only, and failed_share and state_mismatch are
// zero on every healthy run — the driver reads those two from the result
// line's failed/attempted and correct fields.
var endToEnd = []metricDef{
	{Name: "wal_fsyncs_per_batch", Unit: "count", Better: "lower", Bound: 0.10, Gated: true},
	{Name: "alloc_kb_per_batch", Unit: "KB", Better: "lower", Bound: 0.10, Gated: true},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gated: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "ack_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "batches_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_batch", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "ack_ms_p50_all", Unit: "ms", Better: "lower"},
	{Name: "batches_per_s_overall", Unit: "1/s", Better: "higher"},
	{Name: "ack_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "ckpt_stall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ckpt_stall_samples", Unit: "count", Better: "higher"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "state_mismatch", Unit: "count", Better: "lower"},
	{Name: "host.spin_ms", Unit: "ms", Better: "lower"},
	{Name: "host.fsync_us_p50", Unit: "us", Better: "lower"},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer is every single-layer number of the traced pass, grouped by
// the module it measures. None carries a bound.
var perLayer = []metricDef{
	// client / replica wire codec
	layer("client.encode_us_p50", "us", "lower"),
	layer("wire.submit_bytes_per_batch", "B", "lower"),
	layer("ladder.frame_write_ns", "ns", "lower"),
	layer("ladder.frame_read_ns", "ns", "lower"),
	layer("ladder.frame_allocs", "count", "lower"),
	// wal batch codec
	layer("ladder.wal_encode_ns", "ns", "lower"),
	layer("ladder.wal_encode_allocs", "count", "lower"),
	layer("ladder.wal_encode_bytes", "B", "lower"),
	layer("ladder.wal_decode_ns", "ns", "lower"),
	layer("ladder.wal_decode_allocs", "count", "lower"),
	// wal.Log through the FS seam
	layer("leader.wal_write_us_p50", "us", "lower"),
	layer("leader.fsync_us_p50", "us", "lower"),
	layer("leader.fsync_us_p99", "us", "lower"),
	layer("leader.fsyncs_per_batch", "count", "lower"),
	layer("leader.wal_bytes_per_batch", "B", "lower"),
	layer("follower.fsync_us_p50", "us", "lower"),
	layer("follower.fsyncs_per_batch", "count", "lower"),
	layer("ladder.wal_append_nosync_ns", "ns", "lower"),
	layer("ladder.wal_append_sync_ns", "ns", "lower"),
	// replica.Primary / Follower through the Dial seam
	layer("repl.rtt_us_p50", "us", "lower"),
	layer("repl.rtt_us_p99", "us", "lower"),
	layer("repl.rtt_sum_us_p50", "us", "lower"),
	layer("repl.rtt_max_us_p50", "us", "lower"),
	layer("repl.frames_per_batch", "count", "lower"),
	layer("repl.bytes_per_batch", "B", "lower"),
	layer("repl.heartbeats", "count", "lower"),
	layer("follower.other_us_p50", "us", "lower"),
	layer("ladder.replicate_rtt_ns", "ns", "lower"),
	// graph.Store
	layer("ladder.store_apply_ns", "ns", "lower"),
	layer("ladder.store_apply_allocs", "count", "lower"),
	// native.Session
	layer("ladder.native_apply_ns", "ns", "lower"),
	layer("ladder.native_apply_allocs", "count", "lower"),
	layer("ladder.native_propagate_ns", "ns", "lower"),
	layer("native.visits_per_update", "count", "lower"),
	layer("native.edges_per_update", "count", "lower"),
	layer("native.tdtu_skip_ratio", "ratio", "higher"),
	// tdgraph.Session wrapper
	layer("ladder.session_apply_ns", "ns", "lower"),
	layer("ladder.session_apply_allocs", "count", "lower"),
	layer("ladder.session_wrapper_ns", "ns", "lower"),
	// serve.Pipeline
	layer("ladder.pipeline_ingest_solo_ns", "ns", "lower"),
	layer("ladder.pipeline_self_ns", "ns", "lower"),
	layer("leader.other_us_p50", "us", "lower"),
	// tdgraph.Checkpointer
	layer("ladder.ckpt_save_ms", "ms", "lower"),
	layer("ladder.ckpt_load_ms", "ms", "lower"),
	layer("ladder.ckpt_bytes", "B", "lower"),
	layer("ctr.serve_checkpoints", "count", "lower"),
	// replica.Node
	layer("ladder.solo_node_ack_us_p50", "us", "lower"),
	layer("ctr.repl_elections", "count", "lower"),
	layer("ctr.repl_follower_drops", "count", "lower"),
	layer("ctr.repl_records_shipped", "count", "lower"),
	layer("ctr.repl_bytes_shipped", "B", "lower"),
	layer("ctr.wal_fsyncs", "count", "lower"),
	// serve.Queue
	layer("ladder.queue_putget_ns", "ns", "lower"),
	// shares of the median traced ack
	layer("traced.ack_us_p50", "us", "lower"),
	layer("share.client_pct", "%", "lower"),
	layer("share.leader_wal_write_pct", "%", "lower"),
	layer("share.leader_fsync_pct", "%", "lower"),
	layer("share.repl_pct", "%", "lower"),
	layer("share.leader_other_pct", "%", "lower"),
	layer("share.follower_fsync_pct", "%", "lower"),
	layer("share.follower_other_pct", "%", "lower"),
	layer("trace.overhead_pct", "%", "lower"),
	// the traced pass's untraced blocks at the workload's own window:
	// the timings that cannot carry a bound, where the driver still
	// collects them
	layer("untraced.ack_ms_p50", "ms", "lower"),
	layer("untraced.ack_ms_p99", "ms", "lower"),
	layer("untraced.batches_per_s", "1/s", "higher"),
	layer("untraced.ckpt_stall_ms_p50", "ms", "lower"),
	// host shape
	layer("host.nproc", "count", "higher"),
	layer("host.gomaxprocs", "count", "higher"),
	layer("host.fsync_us_p50", "us", "lower"),
	layer("host.spin_ms", "ms", "lower"),
	layer("host.noisy", "count", "lower"),
}

// gatedEndToEnd is the subset of endToEnd the driver is sent.
func gatedEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			out = append(out, d)
		}
	}
	return out
}
