package driver

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/histogram"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/telemetry"
)

// aggWindowWireBytes approximates one per-window partial on the wire
// (series prefix + varint window start, count, and three float64 fields) for
// the report's bytes-saved estimate.
const aggWindowWireBytes = 64

// Report renders the run report printed after the second iteration's data
// check (Figure 6): every number needed to audit and publish the result.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TPCx-IoT Benchmark Report\n")
	fmt.Fprintf(&b, "=========================\n")
	fmt.Fprintf(&b, "SUT:                %s\n", r.SUTDescription)
	fmt.Fprintf(&b, "Driver instances:   %d (simulated power substations)\n", r.Drivers)
	fmt.Fprintf(&b, "Total kvps:         %d\n", r.TotalKVPs)
	fmt.Fprintf(&b, "Compliant run:      %v\n\n", r.Compliant)

	fmt.Fprintf(&b, "Prerequisite checks\n-------------------\n%s\n", r.Prerequisites)

	for i, it := range r.Iterations {
		fmt.Fprintf(&b, "Iteration %d\n-----------\n", i+1)
		fmt.Fprintf(&b, "  warmup:   %10.1fs  (not timed toward the metric)\n",
			it.Warmup.Elapsed().Seconds())
		fmt.Fprintf(&b, "  measured: %10.1fs  %12.1f IoTps  %d kvps\n",
			it.Measured.Elapsed().Seconds(), it.Measured.IoTps(), it.Measured.KVPs)
		minT, maxT, avgT := it.Measured.IngestSkew()
		fmt.Fprintf(&b, "  per-substation ingest time: min %.1fs  max %.1fs  avg %.1fs\n",
			minT.Seconds(), maxT.Seconds(), avgT.Seconds())
		if ins := it.Measured.InsertLatency; ins.Count() > 0 {
			fmt.Fprintf(&b, "  insert latency (ns): %s\n", ins)
			fmt.Fprintf(&b, "  insert tail: p99 %.2fms  p99.9 %.2fms\n",
				msI(ins.Percentile(99)), msI(ins.Percentile(99.9)))
			writeIntended(&b, "insert", ins, it.Measured.IntendedInsert)
		}
		if q := it.Measured.QueryLatency; q.Count() > 0 {
			fmt.Fprintf(&b, "  query latency (ns):  %s\n", q)
			fmt.Fprintf(&b, "  queries: %d  avg %.1fms  min %.1fms  max %.1fms  p95 %.1fms  cv %.2f\n",
				q.Count(), ms(q.Mean()), msI(q.Min()), msI(q.Max()),
				msI(q.Percentile(95)), q.CV())
			fmt.Fprintf(&b, "  query tail: p99 %.2fms  p99.9 %.2fms\n",
				msI(q.Percentile(99)), msI(q.Percentile(99.9)))
			writeIntended(&b, "query", q, it.Measured.IntendedQuery)
			fmt.Fprintf(&b, "  readings aggregated per query: %.1f\n", it.Measured.AvgRowsPerQuery())
		}
		writeSeries(&b, it.Measured.Series)
		writeAudit(&b, it.Verdict)
		fmt.Fprintf(&b, "\n")
	}

	writeTelemetry(&b, r.Telemetry)
	writeStorage(&b, r.Telemetry)
	writeRuntimeHealth(&b, r)
	writeSlowTraces(&b, r.SlowTraces)

	fmt.Fprintf(&b, "Primary metrics\n---------------\n")
	if iotps, err := r.Metric.IoTps(); err == nil {
		fmt.Fprintf(&b, "  Performance:        %.1f IoTps\n", iotps)
	}
	if r.Metric.OwnershipCost > 0 {
		if pp, err := r.Metric.PricePerformance(); err == nil {
			fmt.Fprintf(&b, "  Price-performance:  %.2f $/IoTps\n", pp)
		}
	}
	if !r.Metric.Availability.IsZero() {
		fmt.Fprintf(&b, "  Availability:       %s\n", r.Metric.Availability.Format(time.DateOnly))
	}
	fmt.Fprintf(&b, "  Result valid:       %v\n", r.Valid())
	return b.String()
}

func ms(ns float64) float64 { return ns / 1e6 }
func msI(ns int64) float64  { return float64(ns) / 1e6 }

// writeIntended renders the coordinated-omission-corrected tail next to the
// service-time tail, with the divergence ratio: how much latency the
// intended schedule absorbed that per-op service time never showed. Silent
// for open-loop runs (no intended distribution exists).
func writeIntended(b *strings.Builder, op string, service, intended histogram.Snapshot) {
	if intended.Count() == 0 {
		return
	}
	sp, ip := service.Percentile(99.9), intended.Percentile(99.9)
	fmt.Fprintf(b, "  %s intended (CO-corrected): p99 %.2fms  p99.9 %.2fms",
		op, msI(intended.Percentile(99)), msI(ip))
	if sp > 0 {
		fmt.Fprintf(b, "  (%.1fx service p99.9)", float64(ip)/float64(sp))
	}
	fmt.Fprintf(b, "\n")
}

// writeAudit renders the iteration's verdict: one line per rule, then the
// interval-attribution table joining each violating interval to the
// telemetry signals active in it.
func writeAudit(b *strings.Builder, v audit.Verdict) {
	if len(v.Rules) == 0 {
		return
	}
	status := "VALID"
	if !v.Valid {
		status = "INVALID"
	}
	fmt.Fprintf(b, "  Audit\n  -----\n")
	pacing := "open-loop"
	if v.TargetRate > 0 {
		pacing = fmt.Sprintf("paced %.0f ops/s", v.TargetRate)
	}
	fmt.Fprintf(b, "  verdict: %s  (%s, %d complete intervals", status, pacing, v.Intervals)
	if v.MeanRate > 0 {
		fmt.Fprintf(b, ", mean %.1f ops/s", v.MeanRate)
	}
	fmt.Fprintf(b, ")\n")
	for _, line := range strings.Split(strings.TrimSuffix(v.String(), "\n"), "\n") {
		fmt.Fprintf(b, "    %s\n", line)
	}
	viols := v.Violations()
	if len(viols) == 0 {
		return
	}
	fmt.Fprintf(b, "    interval attribution:\n")
	fmt.Fprintf(b, "      %-8s %9s %12s %22s  %s\n",
		"interval", "elapsed", "ops/s", "band", "co-occurring signals")
	for _, iv := range viols {
		signals := "-"
		if len(iv.Signals) > 0 {
			signals = strings.Join(iv.Signals, ", ")
		}
		fmt.Fprintf(b, "      %-8d %8.1fs %12.1f [%9.1f,%9.1f]  %s\n",
			iv.Interval, iv.ElapsedSeconds, iv.Observed, iv.Lo, iv.Hi, signals)
	}
}

// seriesPrintCap bounds the per-interval lines rendered inline; longer
// series are summarised (the full series goes to the CSV export).
const seriesPrintCap = 20

// writeSeries renders the measured run's telemetry time series: every point
// for short series, a summary for long ones.
func writeSeries(b *strings.Builder, s *telemetry.Series) {
	if s == nil || len(s.Points) == 0 {
		return
	}
	fmt.Fprintf(b, "  time series (%s intervals):\n", s.Interval)
	if len(s.Points) <= seriesPrintCap {
		for _, p := range s.Points {
			fmt.Fprintf(b, "    %s\n", p)
		}
		return
	}
	peak, trough := s.PeakRate()
	fmt.Fprintf(b, "    %d intervals; throughput peak %.1f ops/s, trough %.1f ops/s (full series in CSV export)\n",
		len(s.Points), peak, trough)
}

// putStages is the ingest pipeline in data-flow order: client buffer flush,
// WAL append, memstore insert, region flush.
var putStages = []string{"put.client_flush", "put.wal_append", "put.memstore", "put.region_flush"}

// writeTelemetry renders the run-wide registry summary: the put-path stage
// latency breakdown, query template latencies, and engine counters.
func writeTelemetry(b *strings.Builder, t *telemetry.Summary) {
	if t == nil {
		return
	}
	fmt.Fprintf(b, "Telemetry\n---------\n")
	fmt.Fprintf(b, "  put path (ns per stage, pipeline order):\n")
	for _, stage := range putStages {
		snap, ok := t.Histogram(stage)
		if !ok {
			continue
		}
		fmt.Fprintf(b, "    %-18s %s\n", stage, snap)
	}
	// The client line: buffers the clients' senders shipped, puts that
	// blocked with two flushes outstanding, and the ingest-to-visible lag
	// from sealing a buffer to its ack.
	if lag, ok := t.Histogram("hbase.flush_lag"); ok && lag.Count() > 0 {
		fmt.Fprintf(b, "  client: %d buffer flushes, %d puts waited at the in-flight bound, seal-to-ack lag p50 %.2fms p99 %.2fms\n",
			counterValue(t, "hbase.buffer_flushes"), counterValue(t, "hbase.client_flush_waits"),
			msI(lag.Percentile(50)), msI(lag.Percentile(99)))
	}
	if snap, ok := t.Histogram("scan.next"); ok {
		fmt.Fprintf(b, "  scan path (ns per chunk fetch):\n")
		fmt.Fprintf(b, "    %-18s %s\n", "scan.next", snap)
	}
	for _, h := range t.Histograms {
		if strings.HasPrefix(h.Name, "query.") {
			fmt.Fprintf(b, "  %-20s %s\n", h.Name, h.Snap)
		}
	}
	if len(t.Counters) > 0 {
		fmt.Fprintf(b, "  counters:\n")
		for _, c := range t.Counters {
			fmt.Fprintf(b, "    %-24s %d\n", c.Name, c.Value)
		}
	}
	if batches := counterValue(t, "lsm.batch_applies"); batches > 0 {
		fmt.Fprintf(b, "  write batching: %.2f fsyncs/batch\n",
			float64(counterValue(t, "wal.syncs"))/float64(batches))
	}
	// Quorum pipeline: the ack latency the caller saw (quorum) against what
	// a full synchronous fan-out would have charged (all members applied).
	qSnap, qOK := t.Histogram("replication.quorum_ack")
	fSnap, fOK := t.Histogram("replication.full_ack")
	if qOK && qSnap.Count() > 0 {
		fmt.Fprintf(b, "  replication ack (ns per batch):\n")
		fmt.Fprintf(b, "    %-18s %s\n", "quorum (acked)", qSnap)
		if fOK && fSnap.Count() > 0 {
			fmt.Fprintf(b, "    %-18s %s\n", "full fan-out", fSnap)
			if qp, fp := qSnap.Percentile(99.9), fSnap.Percentile(99.9); qp > 0 {
				fmt.Fprintf(b, "    p99.9 quorum %.2fms vs full %.2fms (%.1fx hidden behind the ack)\n",
					msI(qp), msI(fp), float64(fp)/float64(qp))
			}
		}
		if catchup := counterValue(t, "replication.catchup_batches"); catchup > 0 {
			fmt.Fprintf(b, "    %d member batch applies finished after the ack (catch-up)\n", catchup)
		}
	}
	if sheds := counterValue(t, "hbase.sheds"); sheds > 0 {
		fmt.Fprintf(b, "  admission control: %d sheds (%d queue-full), %d client retries, %d retry-exhausted, %d ops deferred\n",
			sheds,
			counterValue(t, "replication.catchup_full"),
			counterValue(t, "hbase.client_retries"),
			counterValue(t, "hbase.client_retry_exhausted"),
			counterValue(t, "workload.shed_ops"))
	}
	if chunks := counterValue(t, "hbase.scan_chunks"); chunks > 0 {
		fmt.Fprintf(b, "  scan streaming: %.1f rows/chunk over %d scanners (%d lease expiries)\n",
			float64(counterValue(t, "hbase.scan_rows_streamed"))/float64(chunks),
			counterValue(t, "hbase.scanner_opens"),
			counterValue(t, "hbase.scanner_lease_expiries"))
	}
	if aggQ := counterValue(t, "hbase.agg_queries"); aggQ > 0 {
		folded := counterValue(t, "hbase.agg_rows_folded")
		windows := counterValue(t, "hbase.agg_windows")
		fmt.Fprintf(b, "  aggregation pushdown: %d queries, %d rows folded server-side into %d windows\n",
			aggQ, folded, windows)
		// Which path served the folds: a table's reading column, or full
		// rows (memtables, tables written before the column existed). A slow
		// query interval with a low column share is the second kind.
		col, dec := counterValue(t, "lsm.agg_rows_column"), counterValue(t, "lsm.agg_rows_decoded")
		if col+dec > 0 {
			fmt.Fprintf(b, "    reading column served %.1f%% of folded rows (%d from columns, %d decoded from full rows)\n",
				100*float64(col)/float64(col+dec), col, dec)
		}
		// A one-series fold over time-disjoint tables walks them in time
		// order; every other fold runs the merge (lsm.AggregateTime).
		if direct := counterValue(t, "lsm.agg_folds_direct"); direct > 0 {
			fmt.Fprintf(b, "    %d store folds walked time-disjoint tables without the merge\n", direct)
		}
		// Every folded row would have crossed the client boundary as a full
		// kvp on the streamed path; a window partial is a few dozen bytes.
		saved := folded*kvp.PairSize - windows*aggWindowWireBytes
		if saved > 0 {
			fmt.Fprintf(b, "    est. client bytes saved: %s (%.1f rows reduced per query)\n",
				mib(saved), float64(folded)/float64(aggQ))
		}
	}
	if le := counterValue(t, "hbase.scanner_lease_expiries"); le > 0 {
		fmt.Fprintf(b, "  WARNING: %d scanner lease(s) expired mid-scan — queries may have\n"+
			"  stalled past the lease timeout; check the slow-trace section.\n", le)
	}
	writeRegionTable(b, t)
	fmt.Fprintf(b, "\n")
}

// regionColumns are the per-region engine counters tabulated in the report,
// in write-path order.
var regionColumns = []string{"lsm.batch_applies", "lsm.flushes", "lsm.stalls"}

// writeRegionTable renders the per-region breakdown parsed out of tagged
// counter names (lsm.batch_applies{region=...,server=...} and friends).
func writeRegionTable(b *strings.Builder, t *telemetry.Summary) {
	type row struct {
		server string
		vals   map[string]int64
	}
	rows := map[string]*row{}
	var names []string
	for _, c := range t.Counters {
		base, tags := telemetry.SplitTagged(c.Name)
		var region, server string
		for _, tag := range tags {
			switch tag.Key {
			case "region":
				region = tag.Value
			case "server":
				server = tag.Value
			}
		}
		if region == "" {
			continue
		}
		r, ok := rows[region]
		if !ok {
			r = &row{server: server, vals: map[string]int64{}}
			rows[region] = r
			names = append(names, region)
		}
		r.vals[base] += c.Value
	}
	if len(rows) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(b, "  per-region engine activity:\n")
	fmt.Fprintf(b, "    %-16s %-6s %14s %10s %10s\n",
		"region", "server", "batch_applies", "flushes", "stalls")
	for _, name := range names {
		r := rows[name]
		fmt.Fprintf(b, "    %-16s %-6s %14d %10d %10d\n", name, r.server,
			r.vals[regionColumns[0]], r.vals[regionColumns[1]], r.vals[regionColumns[2]])
	}
}

// writeStorage renders the byte-level resource ledger: where every logical
// byte went (WAL, flush, compaction), the derived amplification factors, and
// the read-path efficiency counters (block cache, Bloom filters).
func writeStorage(b *strings.Builder, t *telemetry.Summary) {
	if t == nil {
		return
	}
	logical := counterValue(t, "lsm.logical_bytes")
	if logical == 0 {
		return
	}
	fmt.Fprintf(b, "Storage\n-------\n")
	fmt.Fprintf(b, "  logical bytes written:   %s\n", mib(logical))
	fmt.Fprintf(b, "  WAL bytes:               %s\n", mib(counterValue(t, "wal.bytes")))
	fmt.Fprintf(b, "  flush bytes:             %s\n", mib(counterValue(t, "lsm.flush_bytes")))
	fmt.Fprintf(b, "  compaction read/rewrite: %s / %s\n",
		mib(counterValue(t, "lsm.compact_read_bytes")), mib(counterValue(t, "lsm.compact_write_bytes")))
	fmt.Fprintf(b, "  write amplification:     %.3fx  ((WAL+flush+compact)/logical)\n",
		float64(gaugeValue(t, "lsm.write_amp_milli"))/1000)
	fmt.Fprintf(b, "  compaction debt:         %s  (tables: %d, %s on disk)\n",
		mib(gaugeValue(t, "lsm.compaction_debt_bytes")),
		gaugeValue(t, "lsm.tables"), mib(gaugeValue(t, "lsm.table_bytes")))
	if windows := gaugeValue(t, "lsm.windows"); windows > 0 {
		// Gauges sum over stores: depth equal to the store count means every
		// store's tables are time-disjoint, whatever their number.
		fmt.Fprintf(b, "  compaction windows:      %d  (%d tables in the hot window; read depth %d over %d tables)\n",
			windows, gaugeValue(t, "lsm.hot_window_tables"),
			gaugeValue(t, "lsm.read_depth"), gaugeValue(t, "lsm.tables"))
	}

	if logicalRead := counterValue(t, "lsm.logical_read_bytes"); logicalRead > 0 {
		fmt.Fprintf(b, "  logical bytes read:      %s  (%s from disk, read amp %.3fx)\n",
			mib(logicalRead), mib(gaugeValue(t, "lsm.disk_read_bytes")),
			float64(gaugeValue(t, "lsm.read_amp_milli"))/1000)
		if runs := gaugeValue(t, "lsm.run_reads"); runs > 0 {
			fmt.Fprintf(b, "  sequential runs:         %d reads, %s of the disk bytes (fetched whole, past range ends)\n",
				runs, mib(gaugeValue(t, "lsm.run_bytes")))
		}
	}
	hits, misses := gaugeValue(t, "lsm.cache_hits"), gaugeValue(t, "lsm.cache_misses")
	if hits+misses > 0 {
		fmt.Fprintf(b, "  block cache:             %.1f%% hit rate (%d hits / %d misses)\n",
			100*float64(hits)/float64(hits+misses), hits, misses)
	}
	bHits := counterValue(t, "lsm.bloom_hits")
	bSkips := counterValue(t, "lsm.bloom_skips")
	bFP := counterValue(t, "lsm.bloom_false_positives")
	if probes := bHits + bSkips + bFP; probes > 0 {
		fmt.Fprintf(b, "  bloom filters:           %d tables skipped, %.2f%% false positives (%d/%d probes)\n",
			bSkips, 100*float64(bFP)/float64(probes), bFP, probes)
	}
	keyPrunes := counterValue(t, "lsm.prune_key_skips")
	timePrunes := counterValue(t, "lsm.prune_time_skips")
	if keyPrunes+timePrunes > 0 {
		fmt.Fprintf(b, "  file pruning:            %d tables skipped by key range, %d by time range\n",
			keyPrunes, timePrunes)
	}
	if saved := counterValue(t, "wal.group_commit_shared"); saved > 0 {
		fmt.Fprintf(b, "  fsyncs saved by group commit: %d (%d leader syncs)\n",
			saved, counterValue(t, "wal.group_commit_syncs"))
	}
	fmt.Fprintf(b, "\n")
}

// writeRuntimeHealth renders the health sampler's view of the run: peak and
// mean heap, RSS and goroutine count from the interval series, plus GC pause
// quantiles from the run-wide histogram. Silent when the sampler was off.
func writeRuntimeHealth(b *strings.Builder, r *Result) {
	t := r.Telemetry
	if t == nil {
		return
	}
	var s *telemetry.Series
	for i := len(r.Iterations) - 1; i >= 0; i-- {
		if ser := r.Iterations[i].Measured.Series; ser != nil && len(ser.Points) > 0 {
			s = ser
			break
		}
	}
	if s == nil {
		return
	}
	heapPeak, heapMean, ok := s.GaugeStats("runtime.heap_alloc_bytes")
	if !ok {
		return // sampler disabled for this run
	}
	fmt.Fprintf(b, "Runtime health\n--------------\n")
	fmt.Fprintf(b, "  heap alloc:  peak %s  mean %s\n", mib(heapPeak), mib(int64(heapMean)))
	if rssPeak, rssMean, ok := s.GaugeStats("runtime.rss_bytes"); ok && rssPeak > 0 {
		fmt.Fprintf(b, "  RSS:         peak %s  mean %s\n", mib(rssPeak), mib(int64(rssMean)))
	}
	if gPeak, gMean, ok := s.GaugeStats("runtime.goroutines"); ok {
		fmt.Fprintf(b, "  goroutines:  peak %d  mean %.0f\n", gPeak, gMean)
	}
	if gcs := gaugeValue(t, "runtime.gc_count"); gcs > 0 {
		fmt.Fprintf(b, "  GC cycles:   %d\n", gcs)
	}
	if pause, ok := t.Histogram("gc.pause"); ok && pause.Count() > 0 {
		fmt.Fprintf(b, "  GC pauses:   %d  p50 %.3fms  p95 %.3fms  max %.3fms\n",
			pause.Count(), msI(pause.Percentile(50)), msI(pause.Percentile(95)), msI(pause.Max()))
	}
	fmt.Fprintf(b, "\n")
}

// mib renders a byte count as mebibytes for the report.
func mib(n int64) string { return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20)) }

// slowTracePrintCap bounds the slow traces rendered in the report.
const slowTracePrintCap = 5

// writeSlowTraces renders the span trees of the slowest sampled operations:
// each trace as an indented tree, children ordered by start time, with
// per-span service attribution — where a slow put actually spent its time.
func writeSlowTraces(b *strings.Builder, traces []*telemetry.Trace) {
	if len(traces) == 0 {
		return
	}
	sorted := append([]*telemetry.Trace(nil), traces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration() > sorted[j].Duration() })
	n := len(sorted)
	if n > slowTracePrintCap {
		n = slowTracePrintCap
	}
	fmt.Fprintf(b, "Slow traces\n-----------\n")
	fmt.Fprintf(b, "  %d operation(s) exceeded the slow-op threshold; slowest %d:\n", len(sorted), n)
	for _, tr := range sorted[:n] {
		root := tr.Root()
		if root.SpanID == 0 {
			continue
		}
		fmt.Fprintf(b, "  trace %016x (%.2fms):\n", root.TraceID, float64(tr.Duration())/float64(time.Millisecond))
		children := map[uint64][]telemetry.SpanRecord{}
		for _, s := range tr.Spans {
			if s.SpanID != root.SpanID {
				children[s.ParentID] = append(children[s.ParentID], s)
			}
		}
		var render func(s telemetry.SpanRecord, depth int)
		render = func(s telemetry.SpanRecord, depth int) {
			fmt.Fprintf(b, "    %s%-*s %10.3fms  [%s]\n",
				strings.Repeat("  ", depth), 28-2*depth, s.Name,
				float64(s.DurNs)/1e6, s.Service)
			kids := children[s.SpanID]
			sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
			for _, k := range kids {
				render(k, depth+1)
			}
		}
		render(root, 0)
	}
	fmt.Fprintf(b, "\n")
}

// counterValue looks up one counter in the summary (0 when absent).
func counterValue(t *telemetry.Summary, name string) int64 {
	for _, c := range t.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// gaugeValue looks up one gauge in the summary (0 when absent).
func gaugeValue(t *telemetry.Summary, name string) int64 {
	for _, g := range t.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
