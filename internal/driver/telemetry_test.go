package driver

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// TestTelemetryEndToEnd runs a benchmark with a shared registry wired
// through the cluster and the driver, and verifies every layer reported:
// engine counters, put-path stage spans, query timers, op histograms, a
// per-interval time series, and the rendered report sections.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:    3,
		DataDir:  t.TempDir(),
		Store:    lsm.Options{WALSync: wal.SyncNever, MemtableSize: 64 << 10},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sut, err := NewClusterSUT(cluster, 1, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	var logLines []string
	res, err := Run(Config{
		Drivers:            1,
		TotalKVPs:          6_000,
		ThreadsPerDriver:   2,
		Seed:               7,
		SUT:                sut,
		Iterations:         1,
		MinWorkloadSeconds: 0.001,
		Telemetry:          reg,
		TelemetryInterval:  20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logLines = append(logLines, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The measured run carries a time series with real per-interval ops.
	series := res.Iterations[0].Measured.Series
	if series == nil || len(series.Points) == 0 {
		t.Fatal("measured run has no telemetry series")
	}
	var ops int64
	for _, p := range series.Points {
		ops += p.TotalOps()
	}
	if ops == 0 {
		t.Fatal("series recorded no operations")
	}

	// The registry summary holds the cumulative view across warmup and
	// measured runs.
	sum := res.Telemetry
	if sum == nil {
		t.Fatal("result has no telemetry summary")
	}
	// The iteration ran warmup + measured, 6000 readings each.
	if got := sum.Counter("wal.appends"); got == 0 {
		t.Fatalf("wal.appends = %d, want > 0", got)
	}
	if got := sum.Counter("replication.acks"); got < 3*2*6_000 {
		t.Fatalf("replication.acks = %d, want >= %d (3-way, warmup+measured)", got, 3*2*6_000)
	}
	if got := sum.Counter("hbase.buffer_flushes"); got == 0 {
		t.Fatal("no client buffer flushes counted")
	}
	if lag, ok := sum.Histogram("hbase.flush_lag"); !ok || lag.Count() == 0 {
		t.Fatal("no seal-to-ack lag measured for the sealed buffers")
	}
	if got := sum.Counter("lsm.flushes"); got == 0 {
		t.Fatal("no memtable flushes counted (64 KiB memtables must have rotated)")
	}
	// Per-stage put-path spans, in pipeline order.
	for _, stage := range []string{"put.client_flush", "put.wal_append", "put.memstore", "put.region_flush"} {
		snap, ok := sum.Histogram(stage)
		if !ok || snap.Count() == 0 {
			t.Fatalf("stage %s not measured", stage)
		}
	}
	// Op and query histograms from the ycsb/workload layers.
	if snap, ok := sum.Histogram("op.INSERT"); !ok || snap.Count() != 2*6_000 {
		t.Fatalf("op.INSERT count wrong: %+v ok=%v", snap.Count(), ok)
	}
	var queryTimed int64
	for _, h := range sum.Histograms {
		if strings.HasPrefix(h.Name, "query.") {
			queryTimed += h.Snap.Count()
		}
	}
	if queryTimed == 0 {
		t.Fatal("no dashboard queries timed")
	}

	// Report renders the telemetry sections and streams points via Logf.
	report := res.Report()
	for _, want := range []string{"Telemetry", "put.wal_append", "seal-to-ack lag p50", "counters:", "time series"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	var sawPoint bool
	for _, l := range logLines {
		if strings.Contains(l, "telemetry") {
			sawPoint = true
		}
	}
	if !sawPoint {
		t.Fatal("no telemetry points streamed through Logf")
	}
	checkMetricNames(t, sum)

	// Settled, the storage ledger and the registry roll-up are two views of
	// the same counts.
	if err := cluster.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range cluster.Servers() {
		for _, r := range srv.Regions() {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := r.Store().CompactPending(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tot, sum := cluster.Storage().Totals, reg.Summary()
	for name, want := range map[string]int64{
		"lsm.flushes":               tot.Flushes,
		"lsm.compactions":           tot.Compactions,
		"lsm.stalls":                tot.StallEvents,
		"lsm.batch_applies":         tot.BatchApplies,
		"lsm.logical_bytes":         tot.LogicalBytes,
		"wal.bytes":                 tot.WALBytes,
		"lsm.flush_bytes":           tot.FlushBytes,
		"lsm.compact_read_bytes":    tot.CompactReadBytes,
		"lsm.compact_write_bytes":   tot.CompactWriteBytes,
		"lsm.logical_read_bytes":    tot.LogicalReadBytes,
		"lsm.bloom_hits":            tot.BloomHits,
		"lsm.bloom_skips":           tot.BloomSkips,
		"lsm.bloom_false_positives": tot.BloomFalsePositives,
		"lsm.prune_key_skips":       tot.PruneKeySkips,
		"lsm.prune_time_skips":      tot.PruneTimeSkips,
	} {
		if got := sum.Counter(name); got != want {
			t.Errorf("registry %s = %d, storage totals %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{
		"lsm.disk_read_bytes": tot.DiskReadBytes,
		"lsm.cache_hits":      tot.CacheHits,
		"lsm.cache_misses":    tot.CacheMisses,
		"lsm.tables":          int64(tot.Tables),
		"lsm.table_bytes":     tot.TableBytes,
	} {
		if got := gaugeValue(sum, name); got != want {
			t.Errorf("registry gauge %s = %d, storage totals %d", name, got, want)
		}
	}
	if tot.Flushes == 0 || tot.BatchApplies == 0 || tot.WALBytes == 0 {
		t.Fatalf("settled totals show no engine activity: %+v", tot)
	}
}

var updateNames = flag.Bool("update-names", false, "rewrite "+metricNamesGolden+" from TestTelemetryEndToEnd's registry")

// metricNamesGolden lists every untagged counter and gauge an instrumented
// 3-node cluster run emits, with its kind, as recorded before counters moved
// into the components that own them.
const metricNamesGolden = "testdata/metric_names.golden"

// checkMetricNames holds the run's untagged counter and gauge names to the
// golden: every golden name is still emitted with the same kind, and a name
// the golden lacks is allowed only as the roll-up of a tagged series.
func checkMetricNames(t *testing.T, sum *telemetry.Summary) {
	t.Helper()
	kinds := map[string]string{}
	tagged := map[string]bool{}
	for kind, vals := range map[string][]telemetry.Value{"counter": sum.Counters, "gauge": sum.Gauges} {
		for _, v := range vals {
			if base, tags := telemetry.SplitTagged(v.Name); tags != nil {
				tagged[base] = true
				continue
			}
			kinds[v.Name] = kind
		}
	}
	if *updateNames {
		var lines []string
		for name, kind := range kinds {
			lines = append(lines, kind+" "+name)
		}
		sort.Strings(lines)
		if err := os.WriteFile(metricNamesGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(metricNamesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		kind, name, _ := strings.Cut(line, " ")
		want[name] = true
		if got, ok := kinds[name]; !ok || got != kind {
			t.Errorf("%s: emitted as %q, golden says %s", name, got, kind)
		}
	}
	for name := range kinds {
		if !want[name] && !tagged[name] {
			t.Errorf("%s: untagged name not in %s and not a tagged roll-up", name, metricNamesGolden)
		}
	}
}

// TestTelemetryDisabledIsInert verifies a nil registry leaves the run
// untouched: no series, no summary, no report section.
func TestTelemetryDisabledIsInert(t *testing.T) {
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sut, err := NewClusterSUT(cluster, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Drivers: 1, TotalKVPs: 500, ThreadsPerDriver: 1, SUT: sut,
		Iterations: 1, MinWorkloadSeconds: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("telemetry summary present despite nil registry")
	}
	if res.Iterations[0].Measured.Series != nil {
		t.Fatal("series present despite nil registry")
	}
	if strings.Contains(res.Report(), "Telemetry\n") {
		t.Fatal("report renders telemetry section for an uninstrumented run")
	}
}

// TestWriteStallReachesAuditorAndReport forces a real write stall — a tiny
// memtable, MaxStoreFiles 2 and two flushes over the same time range, so
// read depth reaches the cap — on a registry-wired store, and checks both
// readers of the store's stall counter see it: the auditor's interval
// signals and the report's per-region stalls column. A reader that names a
// series the store does not register shows zero here.
func TestWriteStallReachesAuditorAndReport(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := lsm.Open(lsm.Options{
		Dir:            t.TempDir(),
		WALSync:        wal.SyncNever,
		MemtableSize:   4 << 10,
		MaxStoreFiles:  2,
		CompactTrigger: 8, // the hot tier must not merge before the cap is hit
		Registry:       reg,
		Tags:           []telemetry.Tag{{Key: "region", Value: "iot,00000"}, {Key: "server", Value: "0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ticker := telemetry.NewTicker(reg, time.Hour, nil)
	ticker.Start()

	// Out-of-order ingest: every flush covers timestamps [0, 50), so each
	// new table overlaps all earlier ones in time.
	for round := 0; s.Stats().StallEvents == 0; round++ {
		if round == 50 {
			t.Fatal("no write stall after 50 overlapping flushes")
		}
		for ts := int64(0); ts < 50; ts++ {
			k := kvp.Key{Substation: "ps", Sensor: fmt.Sprintf("s%03d", round), Timestamp: ts}
			if err := s.Put(k.Encode(), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	stalls := s.Stats().StallEvents

	var signals []string
	for _, p := range ticker.Stop().Points {
		signals = append(signals, audit.IntervalSignals(p)...)
	}
	if want := fmt.Sprintf("stalls=+%d", stalls); !strings.Contains(strings.Join(signals, " "), want) {
		t.Fatalf("auditor signals %v missing %q", signals, want)
	}

	var b strings.Builder
	writeRegionTable(&b, reg.Summary())
	var row []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "iot,00000" {
			row = f
		}
	}
	if len(row) != 5 || row[4] != fmt.Sprint(stalls) {
		t.Fatalf("report region row %v, want stalls column %d:\n%s", row, stalls, b.String())
	}
}
