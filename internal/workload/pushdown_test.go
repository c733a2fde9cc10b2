package workload

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/ycsb"
)

// reading builds one spec-shaped kvp with a random two-decimal reading.
func reading(t testing.TB, sub, sensor string, ts int64, rng *rand.Rand) (k, v []byte) {
	t.Helper()
	r := strconv.FormatFloat(math.Round(rng.Float64()*1e4)/100, 'f', 2, 64)
	key := kvp.Key{Substation: sub, Sensor: sensor, Timestamp: ts}
	pad, err := kvp.PaddingFor(key, r, "volt")
	if err != nil {
		t.Fatal(err)
	}
	val := kvp.Value{Reading: r, Unit: "volt", Padding: bytes.Repeat([]byte("p"), pad)}
	return key.Encode(), val.Encode()
}

func putReading(t testing.TB, db ycsb.DB, sub, sensor string, ts int64, rng *rand.Rand) {
	t.Helper()
	k, v := reading(t, sub, sensor, ts, rng)
	if err := db.Insert(k, v); err != nil {
		t.Fatal(err)
	}
}

// allFuncs asks for every statistic, so parity covers every field.
const allFuncs = lsm.AggCount | lsm.AggMin | lsm.AggMax | lsm.AggSum | lsm.AggAvg

// checkParity is the property every test below asserts: over one request,
// the binding's Aggregator (the capability path) and streamWindows (the
// client-side fold over the same binding's scan) return the same partials —
// series, starts, counts, extrema — and the same row count. Sums may differ
// in the last bits only where a region boundary inside a series makes the
// client add two partial sums. It returns the capability path's result.
func checkParity(t *testing.T, db ycsb.DB, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) lsm.AggResult {
	t.Helper()
	pushed, err := db.(Aggregator).Aggregate(lo, hi, minTS, maxTS, windowMS, funcs)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := streamWindows(db, lo, hi, minTS, maxTS, windowMS, funcs)
	if err != nil {
		t.Fatal(err)
	}
	if pushed.RowsFolded != streamed.RowsFolded || len(pushed.Windows) != len(streamed.Windows) {
		t.Fatalf("[%d,%d) window %dms %v: pushed %d rows / %d windows, streamed %d / %d",
			minTS, maxTS, windowMS, funcs, pushed.RowsFolded, len(pushed.Windows),
			streamed.RowsFolded, len(streamed.Windows))
	}
	for i, s := range streamed.Windows {
		p := pushed.Windows[i]
		if !bytes.Equal(p.Series, s.Series) || p.WindowStart != s.WindowStart ||
			p.Count != s.Count || p.Min != s.Min || p.Max != s.Max ||
			math.Abs(p.Sum-s.Sum) > 1e-6 {
			t.Fatalf("[%d,%d) window %dms #%d:\n pushed   %+v\n streamed %+v", minTS, maxTS, windowMS, i, p, s)
		}
	}
	return pushed
}

// TestAggregatorMatchesStreamWindows covers the static cases on an
// in-process cluster: whole-range, multi-window and count-only requests, an
// empty range, a single-row range, and windows that straddle a
// compaction-tier boundary (the rows are flushed in three parts under a
// 10 s store window, so the fold merges tables from different tiers and
// the memtable).
func TestAggregatorMatchesStreamWindows(t *testing.T) {
	sub, sensor := "ps", "pmu-freq-000"
	base := time.UnixMilli(1_700_000_000_000)
	cl := newCluster(t, lsm.Options{WindowDuration: 10 * time.Second})
	db, err := ClusterBinding(cl, "iot", 0)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(42))
	minTS := base.UnixMilli()
	for i := 0; i < 300; i++ {
		putReading(t, db, sub, sensor, minTS+rng.Int63n(60_000), rng)
		if i == 100 || i == 200 {
			if err := db.(clientDB).c.FlushCommits(); err != nil {
				t.Fatal(err)
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
	}
	// One isolated row far from the rest, for the single-row case.
	putReading(t, db, sub, sensor, minTS+500_000, rng)

	lo, hi := kvp.RangeFor(sub, sensor, minTS, minTS+600_000)
	for _, windowMS := range []int64{0, 1000, 7000, 10_000} {
		if res := checkParity(t, db, lo, hi, minTS, minTS+60_000, windowMS, allFuncs); res.RowsFolded != 300 {
			t.Fatalf("window %dms folded %d rows, want 300", windowMS, res.RowsFolded)
		}
	}
	checkParity(t, db, lo, hi, minTS, minTS+60_000, 5000, lsm.AggCount)
	// A window that starts in one store tier and ends in the next.
	checkParity(t, db, lo, hi, minTS+7_000, minTS+13_000, 0, allFuncs)
	if res := checkParity(t, db, lo, hi, minTS+100_000, minTS+200_000, 1000, allFuncs); len(res.Windows) != 0 {
		t.Fatalf("empty range returned %d windows", len(res.Windows))
	}
	if res := checkParity(t, db, lo, hi, minTS+400_000, minTS+600_000, 1000, allFuncs); res.RowsFolded != 1 {
		t.Fatalf("single-row range folded %d rows", res.RowsFolded)
	}
}

// TestAggregatorParityUnderChurn is the same property on the cluster
// binding (TCP) and an in-process client, while writers ingest into the same
// table — a 64 KiB memtable forces flushes and compactions beneath the
// queries, and the table is split inside one series so the client merges
// boundary partials. Writers only append above the queried range, so the
// queried windows are immutable while storage churns. The two transports
// must also agree with each other. Run with -race.
func TestAggregatorParityUnderChurn(t *testing.T) {
	sub := "sub0"
	sensors := []string{"sa", "sb", "sc"}
	split := kvp.Key{Substation: sub, Sensor: "sb", Timestamp: 7000}.Encode()
	cl, err := hbase.NewCluster(hbase.Config{
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
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	inproc := clientDB{c: c}
	defer inproc.Close()
	tcp, err := ClusterBinding(cl, "iot", 0)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	// Settled data: sparse, so some windows are empty and some hold one row.
	rng := rand.New(rand.NewSource(11))
	const settledMax = int64(30_000)
	for i := 0; i < 400; i++ {
		putReading(t, inproc, sub, sensors[rng.Intn(len(sensors))], rng.Int63n(settledMax), rng)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wdb, err := ClusterBinding(cl, "iot", 32<<10)(w)
			if err != nil {
				t.Error(err)
				return
			}
			defer wdb.Close()
			wrng := rand.New(rand.NewSource(int64(w)))
			for ts := settledMax + int64(w); ; ts += 2 {
				select {
				case <-done:
					return
				default:
				}
				k, v := reading(t, sub, sensors[w], ts, wrng)
				if err := wdb.Insert(k, v); err != nil {
					// Full-rate ingest may be shed; that is not a parity failure.
					if errors.Is(err, hbase.ErrOverloaded) {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					t.Error(err)
					return
				}
			}
		}(w)
	}
	defer func() { close(done); wg.Wait() }()

	// One request per sensor, bounded to the settled keys, so the streamed
	// side does not also read everything the writers append.
	for round := 0; round < 4; round++ {
		var folded int64
		for _, sensor := range sensors {
			lo, hi := kvp.RangeFor(sub, sensor, 500, 29_500)
			a := checkParity(t, inproc, lo, hi, 500, 29_500, 3000, allFuncs)
			b := checkParity(t, tcp, lo, hi, 500, 29_500, 3000, allFuncs)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d %s: in-process and TCP aggregates differ:\n inproc %+v\n tcp    %+v", round, sensor, a, b)
			}
			folded += a.RowsFolded
		}
		if folded == 0 {
			t.Fatal("settled range folded no rows; test data broken")
		}
	}
}

// TestRunQueryMemDBMatchesClusterBinding: the same rows behind a binding
// without Aggregator (MemDB, served by the streamWindows fallback) and one
// with it (an in-process cluster) answer every dashboard template
// identically.
func TestRunQueryMemDBMatchesClusterBinding(t *testing.T) {
	sub, sensor := "ps", "pmu-freq-000"
	base := time.UnixMilli(1_700_000_000_000)
	store, err := ClusterBinding(newCluster(t, lsm.Options{}), "iot", 64<<10)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var mem ycsb.DB = ycsb.NewMemDB()
	if _, ok := mem.(Aggregator); ok {
		t.Fatal("memdb unexpectedly implements Aggregator; pick another fallback DB")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		k, v := reading(t, sub, sensor, base.UnixMilli()+rng.Int63n(100_000), rng)
		if err := store.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		if err := mem.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	now := base.Add(100 * time.Second)
	histStart := base.Add(20 * time.Second)
	for kind := QueryKind(0); kind < dashboardKinds; kind++ {
		want, err := RunQuery(store, kind, sub, sensor, now, histStart)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunQuery(mem, kind, sub, sensor, now, histStart)
		if err != nil {
			t.Fatal(err)
		}
		if want.Recent.Rows == 0 || want.Historical.Rows == 0 {
			t.Fatalf("%v: an interval is empty; test data broken", kind)
		}
		if got != want || got.Value() != want.Value() {
			t.Fatalf("%v: memdb %+v (value %g), cluster %+v (value %g)", kind, got, got.Value(), want, want.Value())
		}
	}
}

// TestSequencerUniqueAcrossExecutions is the timestamp-collision regression:
// two workload executions (fresh Instances) sharing one Sequencer against
// the same table must never overwrite each other's keys, even under a clock
// that barely advances — the condition that used to alias keys because each
// execution restarted from the wall clock.
func TestSequencerUniqueAcrossExecutions(t *testing.T) {
	binding := ClusterBinding(newCluster(t, lsm.Options{}), "iot", 64<<10)

	const perRun = 3000
	seq := NewSequencer()
	// A near-frozen clock: advances far slower than the ingest rate, so
	// within a run threads outrun it and across runs the wall clock has not
	// caught up with the bumped timestamps — the old collision trigger.
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Microsecond/10)
	for run := 0; run < 2; run++ {
		inst, err := NewInstance(InstanceConfig{
			Substation:     "substation-00000",
			Readings:       perRun,
			Seed:           uint64(run + 1),
			Now:            clock.Now,
			Sequencer:      seq,
			DisableQueries: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ycsb.Run(ycsb.RunConfig{Threads: 4}, binding, inst); err != nil {
			t.Fatal(err)
		}
	}
	db, err := binding(0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if count := len(scanRows(t, db, nil, nil, 0)); count != 2*perRun {
		t.Fatalf("table holds %d rows after two %d-row executions: %d keys collided",
			count, perRun, 2*perRun-count)
	}
}

// TestNextTimestampMonotonic pins the sequencing rule itself:
// next = max(wall, last+1), per (substation, sensor).
func TestNextTimestampMonotonic(t *testing.T) {
	seq := NewSequencer()
	c := seq.counter("ps", "s0")
	last := int64(0)
	for i := 0; i < 1000; i++ {
		wall := int64(500) // frozen wall clock
		ts := nextTimestamp(c, wall)
		if ts <= last {
			t.Fatalf("timestamp %d not monotonic after %d", ts, last)
		}
		last = ts
	}
	// A wall clock ahead of the counter wins.
	if ts := nextTimestamp(c, 1_000_000); ts != 1_000_000 {
		t.Fatalf("wall-clock jump: got %d, want 1000000", ts)
	}
	// Same sensor key resolves to the same cell.
	if seq.counter("ps", "s0") != c {
		t.Fatal("counter not shared for the same (substation, sensor)")
	}
	if seq.counter("ps", "s1") == c {
		t.Fatal("distinct sensors share a cell")
	}
}

// TestAnalyticTemplatesRun exercises the downsample and window-count
// templates through a full instance run with Analytics on: analytic
// counters tick, and the dashboard validity statistics stay untouched by
// analytic work.
func TestAnalyticTemplatesRun(t *testing.T) {
	cl := newCluster(t, lsm.Options{})
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   20_000,
		Seed:       3,
		Now:        clock.Now,
		Analytics:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ycsb.Run(ycsb.RunConfig{Threads: 2}, ClusterBinding(cl, "iot", 64<<10), inst); err != nil {
		t.Fatal(err)
	}
	st := inst.Stats()
	if st.AnalyticQueries == 0 {
		t.Fatal("no analytic queries ran with Analytics enabled")
	}
	if st.AnalyticWindows == 0 {
		t.Fatal("analytic queries returned no windows")
	}
	if st.Queries == 0 {
		t.Fatal("dashboard queries stopped running alongside analytics")
	}
	if st.PushdownRows == 0 {
		t.Fatal("pushdown ran no server-side folds")
	}
	// The Figure 12 validity metric must count only dashboard intervals.
	if st.AvgRowsPerQuery() == 0 {
		t.Fatal("AvgRowsPerQuery is zero; analytic work may have perturbed it")
	}
}

// TestAnalyticsOffKeepsDashboardRotation: without Analytics the rotation
// must stay the four dashboard templates only. The same instance config
// runs against an in-process cluster (Aggregator: rows fold in the region
// servers) and MemDB (no capability: the streamWindows fallback, nothing
// counted as pushed down).
func TestAnalyticsOffKeepsDashboardRotation(t *testing.T) {
	mem := ycsb.NewMemDB()
	for name, binding := range map[string]ycsb.Binding{
		"cluster": ClusterBinding(newCluster(t, lsm.Options{}), "iot", 64<<10),
		"memdb":   func(int) (ycsb.DB, error) { return mem, nil },
	} {
		st := runDashboardInstance(t, binding)
		if st.AnalyticQueries != 0 {
			t.Fatalf("%s: analytic queries ran with Analytics off: %d", name, st.AnalyticQueries)
		}
		if st.Queries == 0 || st.RowsAggregated == 0 {
			t.Fatalf("%s: dashboard queries = %d over %d recent rows", name, st.Queries, st.RowsAggregated)
		}
		if pushed := st.PushdownRows != 0; pushed != (name == "cluster") {
			t.Fatalf("%s: PushdownRows = %d", name, st.PushdownRows)
		}
	}
}

func runDashboardInstance(t *testing.T, binding ycsb.Binding) InstanceStats {
	t.Helper()
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   8_000,
		Seed:       4,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ycsb.Run(ycsb.RunConfig{Threads: 2}, binding, inst); err != nil {
		t.Fatal(err)
	}
	return inst.Stats()
}

// shedOnReadDB reports a shed flush on the first read after any insert, as
// an hbase client does when its sender gave up on a sealed buffer: the read
// does not run, and the batch waits in the client's buffer.
type shedOnReadDB struct {
	ycsb.DB
	pending bool
	sheds   int64
}

func (d *shedOnReadDB) Insert(key, value []byte) error {
	d.pending = true
	return d.DB.Insert(key, value)
}

func (d *shedOnReadDB) ScanIter(lo, hi []byte, limit int) (ycsb.RowIter, error) {
	if d.pending {
		d.pending = false
		d.sheds++
		return nil, fmt.Errorf("hbase: flush to iot,0: %w", hbase.ErrOverloaded)
	}
	return d.DB.ScanIter(lo, hi, limit)
}

// TestQueryServedAfterReportedShed: a query whose client reports a shed
// flush instead of reading runs once more and folds every row the same
// query folds on an unshed run. The shed is counted; the query is neither
// lost nor counted as served with no rows.
func TestQueryServedAfterReportedShed(t *testing.T) {
	run := func(db ycsb.DB) InstanceStats {
		clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
		inst, err := NewInstance(InstanceConfig{
			Substation: "substation-00000",
			Readings:   8_000,
			Seed:       4,
			Now:        clock.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		binding := func(int) (ycsb.DB, error) { return db, nil }
		if _, err := ycsb.Run(ycsb.RunConfig{Threads: 1}, binding, inst); err != nil {
			t.Fatal(err)
		}
		return inst.Stats()
	}
	want := run(ycsb.NewMemDB())
	shedding := &shedOnReadDB{DB: ycsb.NewMemDB()}
	got := run(shedding)
	if shedding.sheds == 0 || got.Shed != shedding.sheds {
		t.Fatalf("%d sheds reported, %d counted", shedding.sheds, got.Shed)
	}
	if want.Queries == 0 || want.RowsAggregated == 0 {
		t.Fatalf("unshed run: %d queries over %d rows; test data broken", want.Queries, want.RowsAggregated)
	}
	if got.Queries != want.Queries || got.RowsAggregated != want.RowsAggregated || got.HistoricalRows != want.HistoricalRows {
		t.Fatalf("shed run served %d queries over %d recent / %d historical rows, unshed %d over %d / %d",
			got.Queries, got.RowsAggregated, got.HistoricalRows, want.Queries, want.RowsAggregated, want.HistoricalRows)
	}
}
