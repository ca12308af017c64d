package main

// Declared is one metric as BENCHMARK.json declares it.
type Declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every untraced run prints in its final JSON
// line, with the bound by which each may worsen before a change counts as
// a regression. Each is measured on every workload. Latencies and the
// workload-specific metrics (query_*, write_*, bulk_*, delta_*,
// follower_lag_*, recover_s, query_capacity_qps, failed_ratio) are printed
// in the report above the line and judged by compare mode: see README.md
// for why they are not gated. A self-test holds BENCHMARK.json equal to
// these lists.
var endToEnd = []Declared{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics a traced run prints in its final JSON line.
var perLayer = []Declared{
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.conns", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dataset.load_s", Unit: "s", Better: "lower"},
	{Name: "httpapi.query_self_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.query_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "httpapi.moves_self_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.non2xx", Unit: "count", Better: "lower"},
	{Name: "ssrq.build_s", Unit: "s", Better: "lower"},
	{Name: "ssrq.query_us", Unit: "us", Better: "lower"},
	{Name: "ssrq.move_us", Unit: "us", Better: "lower"},
	{Name: "ssrq.edge_flush_us", Unit: "us", Better: "lower"},
	{Name: "ssrq.async_visible_us", Unit: "us", Better: "lower"},
	{Name: "ssrq.durable_move_us", Unit: "us", Better: "lower"},
	{Name: "ssrq.durable_async_move_us", Unit: "us", Better: "lower"},
	{Name: "ssrq.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "ssrq.checkpoints", Unit: "count", Better: "lower"},
	{Name: "ssrq.recover_replay_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "core.query_us.AIS", Unit: "us", Better: "lower"},
	{Name: "core.query_us.TSA", Unit: "us", Better: "lower"},
	{Name: "core.query_us.SFA", Unit: "us", Better: "lower"},
	{Name: "core.query_us.SPA", Unit: "us", Better: "lower"},
	{Name: "core.social_pops_per_q", Unit: "count", Better: "lower"},
	{Name: "core.spatial_pops_per_q", Unit: "count", Better: "lower"},
	{Name: "core.index_cell_pops_per_q", Unit: "count", Better: "lower"},
	{Name: "core.index_user_pops_per_q", Unit: "count", Better: "lower"},
	{Name: "core.reinserts_per_q", Unit: "count", Better: "lower"},
	{Name: "core.graphdist_calls_per_q", Unit: "count", Better: "lower"},
	{Name: "core.fof_tightened_per_q", Unit: "count", Better: "higher"},
	{Name: "core.pops_per_result", Unit: "count", Better: "lower"},
	{Name: "core.label_cell_prunes_per_q", Unit: "count", Better: "higher"},
	{Name: "core.label_skips_per_q", Unit: "count", Better: "lower"},
	{Name: "core.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.batches_per_s", Unit: "1/s", Better: "lower"},
	{Name: "core.pending_max", Unit: "count", Better: "lower"},
	{Name: "aggindex.bound_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "aggindex.publish_us", Unit: "us", Better: "lower"},
	{Name: "aggindex.publish_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "aggindex.edge_apply_us", Unit: "us", Better: "lower"},
	{Name: "aggindex.epochs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "spatial.nn_next_ns", Unit: "ns", Better: "lower"},
	{Name: "spatial.move_publish_us", Unit: "us", Better: "lower"},
	{Name: "graph.astar_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.patched_vertices", Unit: "count", Better: "lower"},
	{Name: "graph.compactions", Unit: "count", Better: "lower"},
	{Name: "landmark.lower_bound_ns", Unit: "ns", Better: "lower"},
	{Name: "landmark.repaired_per_edge", Unit: "count", Better: "lower"},
	{Name: "landmark.repairs", Unit: "count", Better: "lower"},
	{Name: "landmark.disabled", Unit: "count", Better: "lower"},
	{Name: "landmark.rebuilds", Unit: "count", Better: "lower"},
	{Name: "fof.arm_us", Unit: "us", Better: "lower"},
	{Name: "shard.query_us", Unit: "us", Better: "lower"},
	{Name: "shard.shards_queried_per_q", Unit: "count", Better: "lower"},
	{Name: "shard.shards_pruned_per_q", Unit: "count", Better: "higher"},
	{Name: "shard.shards_empty_per_q", Unit: "count", Better: "lower"},
	{Name: "shard.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.merge_us", Unit: "us", Better: "lower"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "shard.rebalances", Unit: "count", Better: "lower"},
	{Name: "sub.sync_us", Unit: "us", Better: "lower"},
	{Name: "sub.rounds", Unit: "count", Better: "lower"},
	{Name: "sub.evals", Unit: "count", Better: "lower"},
	{Name: "sub.skips", Unit: "count", Better: "higher"},
	{Name: "sub.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sub.notified", Unit: "count", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.records_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.segments", Unit: "count", Better: "lower"},
	{Name: "oplog.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "oplog.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "oplog.bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "follower.pull_us", Unit: "us", Better: "lower"},
	{Name: "follower.records_per_pull", Unit: "count", Better: "higher"},
	{Name: "follower.lag_records_max", Unit: "count", Better: "lower"},
}
