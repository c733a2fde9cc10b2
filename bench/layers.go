package main

import (
	"sort"
	"time"

	"tpcxiot/internal/telemetry"
)

// spanAgg is every span of one name, folded over the traced run.
type spanAgg struct {
	Name      string  `json:"name"`
	Count     int64   `json:"count"`
	TotalUS   float64 `json:"total_us_per_span"`
	SelfUS    float64 `json:"self_us_per_span"`
	SelfShare float64 `json:"self_share_of_roots"` // self time over the summed root durations
	totalNS   int64
	selfNS    int64
}

// foldTraces folds span trees into per-name count, total and self time. A
// span's self time is its duration minus the part of its interval that its
// children cover; children that overlap (replication fan-out) are not
// counted twice, and a child outliving its parent is clipped to it. Traces
// rooted before since (set-up's preload and warm-up) are left out.
func foldTraces(traces []*telemetry.Trace, since time.Time) []spanAgg {
	byName := map[string]*spanAgg{}
	var rootNS int64
	for _, tr := range traces {
		if tr.Root().StartNs < since.UnixNano() {
			continue
		}
		children := map[uint64][]telemetry.SpanRecord{}
		for _, sp := range tr.Spans {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
		for _, sp := range tr.Spans {
			a := byName[sp.Name]
			if a == nil {
				a = &spanAgg{Name: sp.Name}
				byName[sp.Name] = a
			}
			a.Count++
			a.totalNS += sp.DurNs
			a.selfNS += sp.DurNs - covered(sp, children[sp.SpanID])
			if sp.ParentID == 0 {
				rootNS += sp.DurNs
			}
		}
	}
	out := make([]spanAgg, 0, len(byName))
	for _, a := range byName {
		a.TotalUS = ratio(float64(a.totalNS), float64(a.Count)) / 1e3
		a.SelfUS = ratio(float64(a.selfNS), float64(a.Count)) / 1e3
		a.SelfShare = ratio(float64(a.selfNS), float64(rootNS))
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNS > out[j].selfNS })
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent telemetry.SpanRecord, children []telemetry.SpanRecord) int64 {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	pLo, pHi := parent.StartNs, parent.StartNs+parent.DurNs
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNs, pLo), min(c.StartNs+c.DurNs, pHi)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		sum += v.hi - max(v.lo, end)
		end = v.hi
	}
	return sum
}

// layerMetrics turns the traced run's evidence — span fold, registry counters
// and engine ledger, each as the difference across the measured window — into
// the per-layer numbers. Probe values are added by the caller.
func layerMetrics(before, after snapshot, spans []spanAgg, w *window, settleS float64) values {
	span := func(name string) spanAgg {
		for _, a := range spans {
			if a.Name == name {
				return a
			}
		}
		return spanAgg{}
	}
	counter := func(name string) float64 {
		return float64(after.sum.Counter(name) - before.sum.Counter(name))
	}
	st, st0 := after.st, before.st
	secs := w.elapsed.Seconds()
	const mib = 1 << 20

	cacheLookups := float64(st.CacheHits - st0.CacheHits + st.CacheMisses - st0.CacheMisses)
	bloomProbes := float64(st.BloomHits - st0.BloomHits + st.BloomSkips - st0.BloomSkips +
		st.BloomFalsePositives - st0.BloomFalsePositives)
	rowsRead := ratio(float64(st.LogicalReadBytes-st0.LogicalReadBytes), 1024)
	batches := float64(st.BatchApplies - st0.BatchApplies)

	return values{
		"driver.sched_lag_p99_ms": w.info["sched_lag_p99_ms"],
		"driver.late_op_ratio":    w.info["late_op_ratio"],

		"client.rows_per_flush":  ratio(float64(w.ops), counter("hbase.buffer_flushes")),
		"client.flush_us":        span("client.flush").TotalUS,
		"client.retries":         counter("hbase.client_retries"),
		"client.retry_exhausted": counter("hbase.client_retry_exhausted"),

		"rpc.mutate.self_us":    span("rpc.mutate").SelfUS,
		"rpc.aggregate.self_us": span("rpc.aggregate").SelfUS,
		"rpc.scan_next.self_us": span("rpc.scan_next").SelfUS,

		"server.handler_wait_us": span("server.handler_wait").TotalUS,
		"server.sheds":           counter("hbase.sheds"),

		"replication.quorum_wait_us":  span("replication.quorum_wait").TotalUS,
		"replication.quorum_acks":     counter("replication.quorum_acks"),
		"replication.catchup_batches": counter("replication.catchup_batches"),

		"lsm.apply_batch.self_us": span("lsm.apply_batch").SelfUS,
		"lsm.stall_wait_us":       span("lsm.stall_wait").TotalUS,
		"lsm.stalls":              float64(st.StallEvents - st0.StallEvents),
		"lsm.flushes":             float64(st.Flushes - st0.Flushes),
		"lsm.flush_mb":            float64(st.FlushBytes-st0.FlushBytes) / mib,

		"wal.append_us":                 span("wal.append").TotalUS,
		"wal.fsync_us":                  span("wal.fsync").TotalUS,
		"wal.fsyncs_per_batch":          ratio(counter("wal.syncs"), batches),
		"wal.group_commit_shared_ratio": ratio(counter("wal.group_commit_shared"), counter("wal.group_commit_shared")+counter("wal.group_commit_syncs")),
		"wal.bytes_per_user_byte":       ratio(float64(st.WALBytes-st0.WALBytes), float64(st.LogicalBytes-st0.LogicalBytes)),

		"lsm.memtable_insert_us": span("lsm.memtable_insert").TotalUS,

		"lsm.compactions":      float64(st.Compactions - st0.Compactions),
		"lsm.compact_write_mb": float64(st.CompactWriteBytes-st0.CompactWriteBytes) / mib,
		"lsm.settle_s":         settleS,

		"sstable.cache_hit_rate":          ratio(float64(st.CacheHits-st0.CacheHits), cacheLookups),
		"sstable.bloom_fp_rate":           ratio(float64(st.BloomFalsePositives-st0.BloomFalsePositives), bloomProbes),
		"sstable.disk_read_bytes_per_row": ratio(float64(st.DiskReadBytes-st0.DiskReadBytes), rowsRead),
		"lsm.prune_time_skips":            float64(st.PruneTimeSkips - st0.PruneTimeSkips),
		"lsm.read_amp":                    ratio(float64(st.DiskReadBytes-st0.DiskReadBytes), float64(st.LogicalReadBytes-st0.LogicalReadBytes)),

		"agg.fold_us":           span("agg.fold").TotalUS,
		"agg.rows_folded_per_s": ratio(counter("hbase.agg_rows_folded"), secs),

		"traced.throughput":   ratio(float64(w.ops), secs),
		"traced.op_p50_ms":    w.opP50MS,
		"tail.op_p99_ms":      w.opP99MS,
		"process.peak_rss_mb": w.info["peak_rss_mb"],
	}
}
