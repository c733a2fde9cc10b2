package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The two tables below are the
// vocabulary later issues use; BENCHMARK.json repeats them and a test keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline by which it may worsen
}

// endToEnd is what a user of the gateway sees. Every workload reports every
// one of them; what "op" means on each workload is fixed in workloads below.
var endToEnd = []metricDef{
	{"throughput", "ops/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_mop", "CPU-s/Mop", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.10},
	{"space_amp", "ratio", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the budget beneath the end-to-end numbers, printed by the
// traced run. A layer a workload bypasses reports 0 — that zero is the
// prediction the workload was built to make.
var perLayer = []metricDef{
	// generator and driver
	{"gen.kvps_per_s", "kvps/s", "higher", 0},
	{"gen.us_per_kvp", "us", "lower", 0},
	{"driver.sched_lag_p99_ms", "ms", "lower", 0},
	{"driver.late_op_ratio", "ratio", "lower", 0},
	// hbase client
	{"client.rows_per_flush", "count", "higher", 0},
	{"client.flush_us", "us", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"client.retry_exhausted", "count", "lower", 0},
	// hbase TCP rpc
	{"rpc.mutate.self_us", "us", "lower", 0},
	{"rpc.aggregate.self_us", "us", "lower", 0},
	{"rpc.scan_next.self_us", "us", "lower", 0},
	{"rpc.overhead_us_per_batch", "us", "lower", 0},
	// hbase server
	{"server.handler_wait_us", "us", "lower", 0},
	{"server.sheds", "count", "lower", 0},
	// replication
	{"replication.quorum_wait_us", "us", "lower", 0},
	{"replication.quorum_acks", "count", "higher", 0},
	{"replication.catchup_batches", "count", "lower", 0},
	// lsm write path
	{"lsm.apply_batch.self_us", "us", "lower", 0},
	{"lsm.stall_wait_us", "us", "lower", 0},
	{"lsm.stalls", "count", "lower", 0},
	{"lsm.flushes", "count", "lower", 0},
	{"lsm.flush_mb", "MiB", "lower", 0},
	// wal
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.fsyncs_per_batch", "ratio", "lower", 0},
	{"wal.group_commit_shared_ratio", "ratio", "higher", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.append_64x1k_us.sync_append", "us", "lower", 0},
	{"wal.append_64x1k_us.sync_rotate", "us", "lower", 0},
	// memtable
	{"lsm.memtable_insert_us", "us", "lower", 0},
	{"memtable.put_ns.w1", "ns", "lower", 0},
	{"memtable.put_ns.w2", "ns", "lower", 0},
	// flush and compaction
	{"lsm.compactions", "count", "lower", 0},
	{"lsm.compact_write_mb", "MiB", "lower", 0},
	{"lsm.settle_s", "s", "lower", 0},
	// sstable, bloom, block cache
	{"sstable.cache_hit_rate", "ratio", "higher", 0},
	{"sstable.bloom_fp_rate", "ratio", "lower", 0},
	{"sstable.disk_read_bytes_per_row", "B", "lower", 0},
	{"lsm.prune_time_skips", "count", "higher", 0},
	{"lsm.read_amp", "ratio", "lower", 0},
	{"sstable.get_ns", "ns", "lower", 0},
	{"sstable.scan_rows_per_s", "rows/s", "higher", 0},
	// lsm read path
	{"agg.fold_us", "us", "lower", 0},
	{"agg.rows_folded_per_s", "rows/s", "higher", 0},
	// telemetry: the traced run's own end-to-end numbers; divided by the
	// untraced run's they are the tracing overhead
	{"traced.throughput", "ops/s", "higher", 0},
	{"traced.op_p50_ms", "ms", "lower", 0},
	// too unsteady to gate: the tail has too few samples beyond it in a 15 s
	// window, and the resident-set peak of a garbage-collected process moves
	// 25-35 % between identical runs
	{"tail.op_p99_ms", "ms", "lower", 0},
	{"process.peak_rss_mb", "MiB", "lower", 0},
}

// values maps metric names to measured values.
type values map[string]float64

// reported is the {"value", "unit"} object the contract line prints.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report selects defs from v; a metric the run did not produce reads 0.
func report(defs []metricDef, v values) map[string]reported {
	out := make(map[string]reported, len(defs))
	for _, d := range defs {
		out[d.Name] = reported{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation;
// 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
