package hbase

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

const allAggFuncs = lsm.AggCount | lsm.AggMin | lsm.AggMax | lsm.AggSum | lsm.AggAvg

// aggKVP encodes one kvp-format reading.
func aggKVP(t testing.TB, substation, sensor string, ts int64, reading float64) (k, v []byte) {
	t.Helper()
	key := kvp.Key{Substation: substation, Sensor: sensor, Timestamp: ts}
	rs := strconv.FormatFloat(reading, 'f', 2, 64)
	pad, err := kvp.PaddingFor(key, rs, "volt")
	if err != nil {
		t.Fatal(err)
	}
	val := kvp.Value{Reading: rs, Unit: "volt", Padding: bytes.Repeat([]byte("p"), pad)}
	return key.Encode(), val.Encode()
}

// seriesRange covers all sensors of one substation.
func seriesRange(substation string) (lo, hi []byte) {
	return append([]byte(substation), 0), append([]byte(substation), 1)
}

// scanFold is the client-side reference for an aggregate: stream [lo, hi)
// through a Scanner, decode every row in [minTS, maxTS) with kvp.ReadingOf
// and fold it in key order.
func scanFold(t testing.TB, c *Client, lo, hi []byte, minTS, maxTS, windowMS int64) (oracle []lsm.WindowAgg, rows int64) {
	t.Helper()
	sc, err := c.NewScanner(lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		row, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ts, tsOK := kvp.TimestampOf(row.Key)
		if !tsOK || ts < minTS || ts >= maxTS {
			continue
		}
		series, _ := kvp.SeriesOf(row.Key)
		v, err := kvp.ReadingOf(row.Value)
		if err != nil {
			t.Fatal(err)
		}
		wstart := minTS + (ts-minTS)/windowMS*windowMS
		n := len(oracle)
		if n == 0 || oracle[n-1].WindowStart != wstart || !bytes.Equal(oracle[n-1].Series, series) {
			oracle = append(oracle, lsm.WindowAgg{
				Series:      append([]byte(nil), series...),
				WindowStart: wstart,
				Min:         math.Inf(1),
				Max:         math.Inf(-1),
			})
			n++
		}
		ow := &oracle[n-1]
		ow.Count++
		if v < ow.Min {
			ow.Min = v
		}
		if v > ow.Max {
			ow.Max = v
		}
		ow.Sum += v
		rows++
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	return oracle, rows
}

// TestAggregateAcrossRegionSplitInSeries splits the table in the middle of
// one sensor's time run, so the same (series, window) surfaces from two
// adjacent regions and the client must merge the tail partials exactly —
// count and sum add, min/max extrema, avg from the merged (sum, count).
func TestAggregateAcrossRegionSplitInSeries(t *testing.T) {
	// Split at sa's t=5500: window [5000,10000) spans the region boundary.
	split := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 5500}.Encode()
	_, c := newTestCluster(t, 3, [][]byte{split})

	for ts := int64(0); ts < 10_000; ts += 1000 {
		k, v := aggKVP(t, "sub0", "sa", ts, float64(ts)/1000)
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := seriesRange("sub0")
	res, err := c.Aggregate(lo, hi, 0, 10_000, 5000, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsFolded != 10 {
		t.Fatalf("RowsFolded = %d, want 10", res.RowsFolded)
	}
	if len(res.Windows) != 2 {
		t.Fatalf("windows = %d, want 2 (boundary partials must merge)", len(res.Windows))
	}
	w := res.Windows[1] // [5000,10000), rows 5..9 split 5500 across regions
	if w.Count != 5 || w.Min != 5 || w.Max != 9 || math.Abs(w.Sum-35) > 1e-9 {
		t.Fatalf("boundary window = %+v, want count 5 min 5 max 9 sum 35", w)
	}
	if got := w.Avg(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("boundary window avg = %g, want 7 (must not be mean of means)", got)
	}
}

// TestAggregateTCPMatchesInproc drives the same data through the in-process
// transport and the TCP wire protocol: identical results, including exact
// float round-trips and the count-only fast path.
func TestAggregateTCPMatchesInproc(t *testing.T) {
	split := kvp.Key{Substation: "sub0", Sensor: "sb", Timestamp: 0}.Encode()
	cl, tcpClient := newTCPCluster(t, 3, [][]byte{split})
	inproc, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for _, sensor := range []string{"sa", "sb", "sc"} {
		for ts := int64(0); ts < 20_000; ts += 500 {
			k, v := aggKVP(t, "sub0", sensor, ts, math.Round(rng.Float64()*1e4)/100)
			if err := tcpClient.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	lo, hi := seriesRange("sub0")
	for _, funcs := range []lsm.AggFuncs{lsm.AggCount, allAggFuncs} {
		got, err := tcpClient.Aggregate(lo, hi, 1000, 19_000, 2500, funcs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inproc.Aggregate(lo, hi, 1000, 19_000, 2500, funcs)
		if err != nil {
			t.Fatal(err)
		}
		if got.RowsFolded != want.RowsFolded || len(got.Windows) != len(want.Windows) {
			t.Fatalf("funcs %v: tcp folded %d rows / %d windows, inproc %d / %d",
				funcs, got.RowsFolded, len(got.Windows), want.RowsFolded, len(want.Windows))
		}
		for i := range want.Windows {
			g, w := got.Windows[i], want.Windows[i]
			if !bytes.Equal(g.Series, w.Series) || g.WindowStart != w.WindowStart ||
				g.Count != w.Count || g.Min != w.Min || g.Max != w.Max || g.Sum != w.Sum {
				t.Fatalf("funcs %v window %d:\n tcp    %+v\n inproc %+v", funcs, i, g, w)
			}
		}
		if got.RowsFolded == 0 {
			t.Fatalf("funcs %v folded no rows", funcs)
		}
	}
}

// TestAggregateFlushesOnlyOverlappingRegions is the buffered-write
// regression: an aggregate over one region must flush that region's buffer
// (read-your-writes) and must NOT flush a non-overlapping region's buffer.
func TestAggregateFlushesOnlyOverlappingRegions(t *testing.T) {
	cl, _ := newTestCluster(t, 3, [][]byte{[]byte("m")})
	c, err := cl.NewClient("iot", 1<<30) // buffer everything, no autoflush
	if err != nil {
		t.Fatal(err)
	}

	// Buffer kvp rows into the low region ("a...") and plain rows into the
	// high region ("z...").
	for ts := int64(0); ts < 5000; ts += 1000 {
		k, v := aggKVP(t, "aaa", "s0", ts, 1)
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := c.Put([]byte(fmt.Sprintf("z%03d", i)), []byte("high")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.buffered
	if before == 0 {
		t.Fatal("writes were not buffered")
	}

	lo, hi := seriesRange("aaa")
	res, err := c.Aggregate(lo, hi, 0, 5000, 0, lsm.AggCount)
	if err != nil {
		t.Fatal(err)
	}
	// Read-your-writes: the aggregate sees the rows buffered for its region.
	if res.RowsFolded != 5 {
		t.Fatalf("RowsFolded = %d, want 5 (own buffered writes must be visible)", res.RowsFolded)
	}
	// The non-overlapping region's batch must still be buffered, untouched.
	tbl, _ := cl.Table("iot")
	highRegion := tbl.locate([]byte("z000")).name
	var highBuffered int
	for tr, batch := range c.buffers {
		if tr.name == highRegion {
			highBuffered = batch.Len()
		}
	}
	if highBuffered != 4 {
		t.Fatalf("non-overlapping region has %d buffered mutations, want 4 intact", highBuffered)
	}
	if got := c.buffered; got == 0 || got >= before {
		t.Fatalf("buffered = %d (before %d): only the overlapping region may flush", got, before)
	}
	// And its rows are not stored yet.
	if _, found, err := getKey(c, []byte("z000")); err != nil {
		t.Fatal(err)
	} else if !found {
		// A read flushes its region first, so by now it IS found; the real
		// assertion is the buffer count above. Reaching here means the
		// flush-on-read path works too.
		t.Fatal("read after flush-on-read did not find the row")
	}
}

// TestAggregatePushdownParityUnderIngest is the end-to-end parity property
// (the PR's acceptance test): while concurrent writers ingest into the same
// table — forcing memtable flushes and compactions under a small memtable —
// a pushed-down aggregate over a settled time range must exactly match a
// client-side fold over a streamed scan of the same range, per window and
// per field. Writers only append timestamps above the queried range, so the
// queried windows are immutable while physical storage churns beneath them.
// Run with -race.
func TestAggregatePushdownParityUnderIngest(t *testing.T) {
	split := kvp.Key{Substation: "sub0", Sensor: "sb", Timestamp: 7000}.Encode()
	cl, err := NewCluster(Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever, MemtableSize: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", [][]byte{split}); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Settled data: sparse, includes empty and single-row windows, and the
	// small memtable spreads it across several SSTable tiers.
	rng := rand.New(rand.NewSource(11))
	const settledMax = int64(30_000)
	sensors := []string{"sa", "sb", "sc"}
	for i := 0; i < 400; i++ {
		sensor := sensors[rng.Intn(len(sensors))]
		ts := int64(rng.Intn(int(settledMax)))
		k, v := aggKVP(t, "sub0", sensor, ts, math.Round(rng.Float64()*1e3)/10)
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent ingest: two writers appending strictly above settledMax.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := cl.NewClient("iot", 32<<10)
			if err != nil {
				t.Error(err)
				return
			}
			defer wc.Close()
			sensor := sensors[w]
			for ts := settledMax + int64(w); ; ts += 2 {
				select {
				case <-done:
					return
				default:
				}
				k, v := aggKVP(t, "sub0", sensor, ts, float64(ts%977))
				if err := wc.Put(k, v); err != nil {
					// Full-rate ingest is allowed to be shed; back off and
					// keep churning — load shedding is not a parity failure.
					if errors.Is(err, ErrOverloaded) {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					t.Error(err)
					return
				}
			}
		}(w)
	}
	t.Cleanup(func() { close(done); wg.Wait() })

	lo, hi := seriesRange("sub0")
	const minTS, maxTS, windowMS = int64(500), int64(29_500), int64(3000)
	for round := 0; round < 8; round++ {
		pushed, err := c.Aggregate(lo, hi, minTS, maxTS, windowMS, allAggFuncs)
		if err != nil {
			t.Fatal(err)
		}

		// Streamed baseline: scan the same range through the chunked scanner
		// and fold client-side.
		oracle, rows := scanFold(t, c, lo, hi, minTS, maxTS, windowMS)

		if pushed.RowsFolded != rows || len(pushed.Windows) != len(oracle) {
			t.Fatalf("round %d: pushed %d rows / %d windows, streamed %d / %d",
				round, pushed.RowsFolded, len(pushed.Windows), rows, len(oracle))
		}
		for i := range oracle {
			g, w := pushed.Windows[i], oracle[i]
			if !bytes.Equal(g.Series, w.Series) || g.WindowStart != w.WindowStart ||
				g.Count != w.Count || g.Min != w.Min || g.Max != w.Max ||
				math.Abs(g.Sum-w.Sum) > 1e-6 {
				t.Fatalf("round %d window %d:\n pushed   %+v\n streamed %+v", round, i, g, w)
			}
		}
		if rows == 0 {
			t.Fatal("settled range folded no rows; test data broken")
		}
	}
}

// TestAggregateCounters verifies the server-side aggregation telemetry:
// hbase.agg_queries counts RPCs (one per overlapping region), agg_rows_folded
// counts rows reduced server-side, agg_windows counts returned partials.
func TestAggregateCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	cl, err := NewCluster(Config{
		Nodes:    3,
		DataDir:  t.TempDir(),
		Store:    lsm.Options{WALSync: wal.SyncNever},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 10_000; ts += 1000 {
		k, v := aggKVP(t, "sub0", "sa", ts, 1)
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := seriesRange("sub0")
	res, err := c.Aggregate(lo, hi, 0, 10_000, 5000, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsFolded != 10 || len(res.Windows) != 2 {
		t.Fatalf("res = %d rows / %d windows, want 10 / 2", res.RowsFolded, len(res.Windows))
	}
	if got := reg.CounterValue("hbase.agg_queries"); got != 1 {
		t.Fatalf("hbase.agg_queries = %d, want 1", got)
	}
	if got := reg.CounterValue("hbase.agg_rows_folded"); got != 10 {
		t.Fatalf("hbase.agg_rows_folded = %d, want 10", got)
	}
	if got := reg.CounterValue("hbase.agg_windows"); got != 2 {
		t.Fatalf("hbase.agg_windows = %d, want 2", got)
	}
}

func TestAggregateBadWindowAndClosedClient(t *testing.T) {
	_, c := newTestCluster(t, 3, nil)
	k, v := aggKVP(t, "sub0", "sa", 1000, 5)
	if err := c.Put(k, v); err != nil {
		t.Fatal(err)
	}
	lo, hi := seriesRange("sub0")
	if _, err := c.Aggregate(lo, hi, 0, 10_000, -5, allAggFuncs); err == nil {
		t.Fatal("negative window accepted")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Aggregate(lo, hi, 0, 10_000, 0, allAggFuncs); err != ErrClientClosed {
		t.Fatalf("closed client: %v, want ErrClientClosed", err)
	}
}

// TestAggregateServedFromReadingColumns is the column fold seen from a
// client: once the replicas have flushed, aggregates over both transports are
// folded from the tables' reading columns — the lsm.agg_rows_* counters and
// /storage's column_bytes say so — and equal, to the bit of every sum, a
// client-side fold over the rows a Scanner streams (the table is pre-split at
// series boundaries into three regions, so the client never adds two partial
// sums). Rows still in a memtable are decoded, and once flushed every region's
// replicas carry columns of their own.
func TestAggregateServedFromReadingColumns(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig(t, 3)
	cfg.Registry = reg
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	atSeries := func(sensor string) []byte {
		return kvp.Key{Substation: "sub0", Sensor: sensor, Timestamp: 0}.Encode()
	}
	if _, err := cl.CreateTable("iot", [][]byte{atSeries("sb"), atSeries("sc")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	inproc, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	tcp, err := cl.NewTCPClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	flushAll := func() {
		t.Helper()
		for _, c := range []*Client{inproc, tcp} {
			if err := c.FlushCommits(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Quiesce(); err != nil {
			t.Fatal(err)
		}
		for _, srv := range cl.Servers() {
			for _, r := range srv.Regions() {
				if err := r.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(19))
	for _, sensor := range []string{"sa", "sb", "sc"} {
		for ts := int64(0); ts < 20_000; ts += 100 {
			k, v := aggKVP(t, "sub0", sensor, ts, math.Round(rng.Float64()*1e6)/100)
			if err := tcp.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushAll()

	lo, hi := seriesRange("sub0")
	const minTS, maxTS, windowMS = int64(1000), int64(19_000), int64(2500)
	counters := func() (column, decoded int64) {
		return reg.CounterValue("lsm.agg_rows_column"), reg.CounterValue("lsm.agg_rows_decoded")
	}
	// check returns how many of the aggregate's rows each path served.
	check := func(stage string, c *Client) (column, decoded int64) {
		t.Helper()
		c0, d0 := counters()
		got, err := c.Aggregate(lo, hi, minTS, maxTS, windowMS, allAggFuncs)
		if err != nil {
			t.Fatal(err)
		}
		c1, d1 := counters()
		want, rows := scanFold(t, c, lo, hi, minTS, maxTS, windowMS)
		if got.RowsFolded != rows || len(got.Windows) != len(want) || rows == 0 {
			t.Fatalf("%s: aggregate folded %d rows into %d windows, the scan %d into %d",
				stage, got.RowsFolded, len(got.Windows), rows, len(want))
		}
		for i, w := range want {
			g := got.Windows[i]
			if !bytes.Equal(g.Series, w.Series) || g.WindowStart != w.WindowStart || g.Count != w.Count ||
				g.Min != w.Min || g.Max != w.Max || math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
				t.Fatalf("%s window %d:\n aggregate %+v\n scan fold %+v", stage, i, g, w)
			}
		}
		if (c1-c0)+(d1-d0) != got.RowsFolded {
			t.Fatalf("%s: counters account for %d+%d rows, the aggregate folded %d", stage, c1-c0, d1-d0, got.RowsFolded)
		}
		return c1 - c0, d1 - d0
	}
	for name, c := range map[string]*Client{"in-process": inproc, "tcp": tcp} {
		if column, decoded := check(name, c); decoded != 0 || column == 0 {
			t.Fatalf("%s over flushed tables: %d rows from columns, %d decoded", name, column, decoded)
		}
	}

	// Unflushed rows inside the range are decoded from the memtable.
	for ts := int64(5050); ts < 6000; ts += 100 {
		k, v := aggKVP(t, "sub0", "sb", ts, float64(ts)/8)
		if err := inproc.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := inproc.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if column, decoded := check("with memtable rows", tcp); decoded != 10 || column == 0 {
		t.Fatalf("ten unflushed rows: %d from columns, %d decoded", column, decoded)
	}

	// /storage reports the column of every table of every replica.
	requireColumns := func(stage string) {
		t.Helper()
		rep := cl.Storage()
		if len(rep.Regions) != 3*3 {
			t.Fatalf("%s: %d replica entries, want 9", stage, len(rep.Regions))
		}
		for _, rs := range rep.Regions {
			if len(rs.Tables) == 0 {
				t.Fatalf("%s: replica %s@%d has no tables", stage, rs.Region, rs.Server)
			}
			for _, ts := range rs.Tables {
				if ts.ColumnBytes <= 0 || ts.ColumnBytes >= ts.SizeBytes/10 {
					t.Fatalf("%s: replica %s@%d table %d: column of %d bytes in %d", stage, rs.Region, rs.Server, ts.ID, ts.ColumnBytes, ts.SizeBytes)
				}
			}
		}
		if doc, err := json.Marshal(rep); err != nil || !bytes.Contains(doc, []byte(`"column_bytes":`)) {
			t.Fatalf("%s: /storage document lacks column_bytes (%v)", stage, err)
		}
	}
	flushAll()
	requireColumns("after the memtable flush")
	for name, c := range map[string]*Client{"in-process": inproc, "tcp": tcp} {
		if column, decoded := check(name+" after the memtable flush", c); decoded != 0 || column == 0 {
			t.Fatalf("%s after the memtable flush: %d rows from columns, %d decoded", name, column, decoded)
		}
	}
}

// TestRegionReadsReturnOnlyItsRows: a region's copies hold only its own
// keys, so an unbounded scan or aggregate sent to one region returns exactly
// that region's rows over either transport, with no clipping to its range.
func TestRegionReadsReturnOnlyItsRows(t *testing.T) {
	cl, c := newTCPCluster(t, 3, [][]byte{[]byte("PS-B"), []byte("PS-C")})
	for i, sub := range []string{"PS-A", "PS-B", "PS-C"} {
		for ts := int64(0); ts < int64(10*(i+1)); ts++ {
			if err := c.Put(aggKVP(t, sub, "s0", ts, float64(ts))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cl.Table("iot")
	for name, rpc := range bothTransports(t, cl) {
		for i, tr := range tbl.regions {
			want := 10 * (i + 1)
			id, err := rpc.openScanner(tr, nil, nil, 0, telemetry.TSpan{})
			if err != nil {
				t.Fatal(err)
			}
			rows, more, err := rpc.scanNext(tr, id, 1000, telemetry.TSpan{})
			if err != nil || more || len(rows) != want {
				t.Fatalf("%s: scan of %s = %d rows, more=%v, err=%v; want %d", name, tr.name, len(rows), more, err, want)
			}
			for _, r := range rows {
				if !tr.contains(r.Key) {
					t.Fatalf("%s: scan of %s returned %q", name, tr.name, r.Key)
				}
			}
			res, err := rpc.aggregate(tr, nil, nil, 0, math.MaxInt64, 0, lsm.AggCount, telemetry.TSpan{})
			if err != nil || res.RowsFolded != int64(want) {
				t.Fatalf("%s: aggregate of %s folded %d rows, err=%v; want %d", name, tr.name, res.RowsFolded, err, want)
			}
		}
	}
}
