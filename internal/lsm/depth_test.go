package lsm

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

func timeTable(minTS, maxTS int64) *tableHandle {
	return &tableHandle{minTS: minTS, maxTS: maxTS, hasTS: true}
}

func TestReadDepth(t *testing.T) {
	unbounded := &tableHandle{}
	for _, tc := range []struct {
		name   string
		tables []*tableHandle
		want   int
	}{
		{"empty", nil, 0},
		{"one", []*tableHandle{timeTable(5, 5)}, 1},
		{"disjoint", []*tableHandle{timeTable(0, 9), timeTable(10, 19), timeTable(20, 29)}, 1},
		{"touching endpoints", []*tableHandle{timeTable(0, 10), timeTable(10, 20)}, 2},
		{"nested, siblings apart", []*tableHandle{timeTable(0, 100), timeTable(10, 20), timeTable(30, 40)}, 2},
		{"nested three deep", []*tableHandle{timeTable(20, 30), timeTable(0, 100), timeTable(10, 50)}, 3},
		{"staircase", []*tableHandle{timeTable(0, 10), timeTable(5, 15), timeTable(11, 20)}, 2},
		{"no time bounds overlaps everything", []*tableHandle{timeTable(0, 9), unbounded, timeTable(10, 19)}, 2},
		{"timestamp-less store", []*tableHandle{unbounded, unbounded, unbounded}, 3},
	} {
		if got := readDepth(tc.tables); got != tc.want {
			t.Errorf("%s: readDepth = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// depthInSync asserts the maintained depth matches a fresh sweep.
func depthInSync(t *testing.T, s *Store) int {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if want := readDepth(s.tables); s.depth != want {
		t.Fatalf("maintained depth %d, sweep says %d over %d tables", s.depth, want, len(s.tables))
	}
	return s.depth
}

// TestDepthFollowsTableSet: every way the table set changes — flush install,
// compaction swap, reopen — leaves the maintained depth equal to a sweep, and
// removing what was installed restores the depth it had.
func TestDepthFollowsTableSet(t *testing.T) {
	reg := telemetry.NewRegistry()
	tag := telemetry.Tag{Key: "region", Value: "r1"}
	opts := Options{
		Dir: t.TempDir(), WALSync: wal.SyncNever, DisableAutoFlush: true,
		WindowDuration: time.Hour, CompactTrigger: 50, MaxStoreFiles: 50,
		Registry: reg, Tags: []telemetry.Tag{tag},
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	flushBatch(t, s, "a", 0, 10)
	flushBatch(t, s, "a", 100, 10)
	if d := depthInSync(t, s); d != 1 {
		t.Fatalf("two disjoint flushes: depth %d, want 1", d)
	}
	// A flush spanning both raises depth to 2 ...
	for _, ts := range []int64{5, 105} {
		if err := s.Put(sensorKey("b", ts), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := depthInSync(t, s); d != 2 {
		t.Fatalf("spanning flush: depth %d, want 2", d)
	}
	if h := s.Health(); h.ReadDepth != 2 || h.Tables != 3 {
		t.Fatalf("Health = depth %d over %d tables, want 2 over 3", h.ReadDepth, h.Tables)
	}
	if plain, tagged := reg.GaugeValue("lsm.read_depth"), reg.GaugeValue(telemetry.Tagged("lsm.read_depth", tag)); plain != 2 || tagged != 2 {
		t.Fatalf("lsm.read_depth gauges = %d plain, %d tagged; want 2", plain, tagged)
	}
	if tiers := s.TierStats(); len(tiers) != 1 || tiers[0].Depth != 2 || tiers[0].Tables != 3 {
		t.Fatalf("TierStats = %+v, want one window of 3 tables, depth 2", tiers)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// ... survives a reopen ...
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d := depthInSync(t, s); d != 2 {
		t.Fatalf("reopened: depth %d, want 2", d)
	}
	// ... and merging the set away leaves one table, depth 1.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if d := depthInSync(t, s); d != 1 {
		t.Fatalf("after full merge: depth %d, want 1", d)
	}
}

// TestGetPrunesByTime: a point read of an old-window key rules newer tables
// out by their time bounds — counted in lsm.prune_time_skips — before any of
// their Bloom filters is probed.
func TestGetPrunesByTime(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, Options{
		DisableAutoFlush: true, WindowDuration: time.Second,
		CompactTrigger: 50, MaxStoreFiles: 50, Registry: reg,
	})
	// Every table holds sensors a, m and z, so m's keys sit inside every
	// table's key range and only time can tell the tables apart.
	for w := int64(0); w < 3; w++ {
		for _, sen := range []string{"a", "m", "z"} {
			if err := s.Put(sensorKey(sen, w*1000+5), []byte(sen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	v, ok, err := s.Get(sensorKey("m", 5))
	if err != nil || !ok || string(v) != "m" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	after := s.Stats()
	if got := after.PruneTimeSkips - before.PruneTimeSkips; got != 2 {
		t.Fatalf("prune_time_skips rose by %d, want 2 (both newer tables)", got)
	}
	if got := reg.CounterValue("lsm.prune_time_skips"); got != after.PruneTimeSkips {
		t.Fatalf("lsm.prune_time_skips = %d, ledger says %d", got, after.PruneTimeSkips)
	}
	probes := func(st Stats) int64 { return st.BloomHits + st.BloomSkips + st.BloomFalsePositives }
	if got := probes(after) - probes(before); got != 1 {
		t.Fatalf("%d Bloom probes for one Get, want 1 (the old table only)", got)
	}
	if after.BloomHits-before.BloomHits != 1 {
		t.Fatalf("the one probe was not a hit: %+v", after)
	}
	// A key absent from its own window is still a miss, not an error.
	if _, ok, err := s.Get(sensorKey("m", 1006)); ok || err != nil {
		t.Fatalf("Get of an absent key = %v, %v", ok, err)
	}
}

// oooModel is the map oracle of the out-of-order test: encoded key -> reading.
type oooModel struct {
	t     *testing.T
	s     *Store
	live  map[string]float64
	batch []Write
}

func (m *oooModel) put(sensor string, ts int64, reading float64) {
	key := kvp.Key{Substation: "sub0", Sensor: sensor, Timestamp: ts}
	// Two decimals survive the value encoding exactly.
	reading = math.Round(reading*100) / 100
	enc := key.Encode()
	m.batch = append(m.batch, Write{Key: enc, Value: aggValue(m.t, key, reading)})
	m.live[string(enc)] = reading
}

func (m *oooModel) flush() {
	m.t.Helper()
	if err := m.s.ApplyBatch(m.batch); err != nil {
		m.t.Fatal(err)
	}
	m.batch = m.batch[:0]
	if err := m.s.Flush(); err != nil {
		m.t.Fatal(err)
	}
}

// check folds the oracle in key order — the engine's order, so sums must be
// bit-equal — and compares it with AggregateTime over the whole store, which
// in turn must equal the same fold forced onto the data blocks.
func (m *oooModel) check(stage string) {
	m.t.Helper()
	const windowMS = 2500
	keys := make([]string, 0, len(m.live))
	for k := range m.live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var want []WindowAgg
	for _, k := range keys {
		series, _ := kvp.SeriesOf([]byte(k))
		ts, _ := kvp.TimestampOf([]byte(k))
		wstart := ts / windowMS * windowMS
		n := len(want)
		if n == 0 || want[n-1].WindowStart != wstart || !bytes.Equal(want[n-1].Series, series) {
			want = append(want, newWindowAgg(series, wstart))
			n++
		}
		want[n-1].Count++
		want[n-1].add(m.live[k])
	}
	lo, hi := aggRange("sub0", 0, 0)
	res := foldBothWays(m.t, m.s, lo, hi, 0, math.MaxInt64, windowMS, allAggFuncs)
	if len(res.Windows) != len(want) || res.RowsFolded != int64(len(keys)) {
		m.t.Fatalf("%s: %d windows over %d rows, oracle has %d over %d",
			stage, len(res.Windows), res.RowsFolded, len(want), len(keys))
	}
	for i, w := range want {
		got := res.Windows[i]
		if !bytes.Equal(got.Series, w.Series) || got.WindowStart != w.WindowStart ||
			got.Count != w.Count || got.Min != w.Min || got.Max != w.Max ||
			math.Float64bits(got.Sum) != math.Float64bits(w.Sum) {
			m.t.Fatalf("%s: window %d:\n got %+v\nwant %+v", stage, i, got, w)
		}
	}
}

// TestOutOfOrderIngestRaisesDepthAndMerges is the overflow shape: in-order
// flushes interleaved with late and backfilled readings and overwrites of
// old-window keys. In-order tables stay unmerged; late data widens flush
// tables until depth reaches CompactTrigger, a hot-tier merge brings it back
// down, and the cold merge brings no stale version back — with AggregateTime equal
// to the map oracle at every stage.
func TestOutOfOrderIngestRaisesDepthAndMerges(t *testing.T) {
	const windowMS, trigger = 10_000, 4
	s := openTest(t, Options{
		DisableAutoFlush: true, WindowDuration: windowMS * time.Millisecond,
		CompactTrigger: trigger, MaxStoreFiles: 50,
	})
	m := &oooModel{t: t, s: s, live: map[string]float64{}}
	sensors := []string{"sa", "sb", "sc"}
	inOrder := func(fromTS int64) {
		for ts := fromTS; ts < fromTS+1000; ts += 100 {
			for i, sen := range sensors {
				m.put(sen, ts, float64(ts)/7+float64(i))
			}
		}
	}

	// Window 0, in order: disjoint tables, nothing to merge.
	for f := int64(0); f < 5; f++ {
		inOrder(f * 1000)
		m.flush()
	}
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 0 || st.Tables != 5 {
		t.Fatalf("in-order window: %d compactions, %d tables; want 0 and 5", st.Compactions, st.Tables)
	}
	if d := depthInSync(t, s); d != 1 {
		t.Fatalf("in-order window: depth %d, want 1", d)
	}
	m.check("in-order")

	// Window 1 opens with an overwrite of a window-0 key riding along: the
	// flush table's time range widens down to the overwritten key.
	inOrder(windowMS)
	m.put("sa", 300, -300)
	m.flush()
	if top := s.TableStats()[0]; top.MinTS != 300 {
		t.Fatalf("overwrite flush: minTS %d, want 300", top.MinTS)
	}
	if err := s.CompactPending(); err != nil { // window 0 went cold: one whole-window merge
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 1 || st.Tables != 2 {
		t.Fatalf("cold window 0: %d compactions, %d tables; want 1 and 2", st.Compactions, st.Tables)
	}
	m.check("window 0 cold")

	// Late data: every flush now carries in-order rows plus backfill,
	// and overwrites of window-0 keys, so all of them overlap. Hold
	// the compactor off to watch depth climb.
	before := s.Stats().Compactions
	s.compactMu.Lock()
	for f := int64(1); f < trigger; f++ {
		inOrder(windowMS + f*1000)
		m.put("sa", 50+f, 1000+float64(f)) // backfill: a reading that never arrived
		m.put("sb", 100*f, -float64(f))    // overwrite
		m.put("sc", 100*f, 500+float64(f)) // overwrite of another series
		m.flush()
	}
	depth := depthInSync(t, s)
	hot := s.TierStats()[0]
	s.compactMu.Unlock()
	// The window-1 tables overlap each other and the cold window-0 table.
	if hot.Depth != trigger || !hot.Hot || depth != trigger+1 {
		t.Fatalf("late data: hot tier %+v, store depth %d; want hot depth %d, store depth %d",
			hot, depth, trigger, trigger+1)
	}
	m.check("depth at trigger")
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Compactions - before; got != 1 {
		t.Fatalf("%d compactions at depth %d, want one hot-tier merge", got, trigger)
	}
	if hot := s.TierStats()[0]; hot.Depth != 1 || hot.Tables != 1 {
		t.Fatalf("after the hot-tier merge: %+v, want one table", hot)
	}
	if debt := s.Stats().CompactionDebtBytes; debt != 0 {
		t.Fatalf("settled store owes %d bytes", debt)
	}
	m.check("hot tier merged")

	// Window 2: window 1 goes cold. Its merged table still shadows window
	// 0's with newer versions; no stale version may come back.
	inOrder(2 * windowMS)
	m.flush()
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	m.check("window 1 cold")
	for _, k := range []kvp.Key{{Sensor: "sa", Timestamp: 300}, {Sensor: "sc", Timestamp: 100}} {
		k.Substation = "sub0"
		v, ok, err := s.Get(k.Encode())
		got, rerr := kvp.ReadingOf(v)
		if want := m.live[string(k.Encode())]; err != nil || !ok || rerr != nil || got != want {
			t.Fatalf("%s@%d = %v (%v, %v, %v), want the overwrite %v", k.Sensor, k.Timestamp, got, ok, err, rerr, want)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m.check("full merge")
}

// TestLongInOrderWindowIsNotRewritten: hundreds of in-order flushes inside
// one window. None is rewritten for depth's sake; the file budget folds each
// once, foldWidth at a time, so the window never holds more than the budget
// plus one output per fold, compaction writes stay below flush writes while
// the window is hot, nothing stalls, and the cold merge leaves exactly one
// table.
func TestLongInOrderWindowIsNotRewritten(t *testing.T) {
	s := openTest(t, Options{
		DisableAutoFlush: true, WindowDuration: time.Hour,
	})
	const flushes, rowsPerFlush = 520, 6
	ts := int64(0)
	for f := 1; f <= flushes; f++ {
		flushBatch(t, s, fmt.Sprintf("s%d", f%3), ts, rowsPerFlush)
		ts += rowsPerFlush
		if s.Health().Tables > hotFileBudget {
			if err := s.CompactPending(); err != nil { // the background fold, deterministically
				t.Fatal(err)
			}
		}
		h := s.Health()
		// Each fold retires foldWidth tables for one output.
		if max := hotFileBudget + f/(foldWidth-1); h.Tables > max {
			t.Fatalf("after %d flushes: %d tables, budget allows %d", f, h.Tables, max)
		}
		if h.ReadDepth > 2 {
			t.Fatalf("after %d in-order flushes: depth %d", f, h.ReadDepth)
		}
	}
	st := s.Stats()
	if want := int64(flushes-hotFileBudget-1)/(foldWidth-1) + 1; st.Compactions != want {
		t.Fatalf("%d compactions over %d flushes, want %d folds of %d", st.Compactions, flushes, want, foldWidth)
	}
	if st.CompactWriteBytes > st.FlushBytes {
		t.Fatalf("hot window rewrote %d bytes of %d flushed", st.CompactWriteBytes, st.FlushBytes)
	}
	if st.StallEvents != 0 {
		t.Fatalf("%d write stalls on in-order ingest", st.StallEvents)
	}

	// The next window's first flush turns this one cold.
	flushBatch(t, s, "s0", time.Hour.Milliseconds(), 1)
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	tiers := s.TierStats()
	if len(tiers) != 2 || tiers[1].Tables != 1 || tiers[1].Depth != 1 {
		t.Fatalf("cold window did not settle to one table: %+v", tiers)
	}
	if st := s.Stats(); st.CompactWriteBytes > 2*st.FlushBytes {
		t.Fatalf("fold + cold merge wrote %d bytes for %d flushed, want at most 2x", st.CompactWriteBytes, st.FlushBytes)
	}
	rows := 0
	if err := scan(s, nil, nil, func(k, v []byte) error { rows++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != flushes*rowsPerFlush+1 {
		t.Fatalf("scan found %d rows, want %d", rows, flushes*rowsPerFlush+1)
	}
}

// TestSkewedInOrderWritersAreNotRewritten is the shape two unsynchronised
// in-order writers leave: every flush holds one series at ts and another a
// fixed lag behind, so consecutive tables overlap lag/span deep. Under the
// default trigger a lag the scheduler can produce (a few flushes) is left
// for the cold merge — each byte is compacted once, whatever the lag was —
// and a lag at the trigger still merges as a tier, although the default
// trigger is wider than one merge.
func TestSkewedInOrderWritersAreNotRewritten(t *testing.T) {
	const span = 10 // ms of data time per series per flush
	skewed := func(s *Store, flushes, lagFlushes int) {
		for f := 0; f < flushes; f++ {
			ts := int64(f * span)
			for i := int64(0); i < span; i++ {
				if err := s.Put(sensorKey("ahead", ts+int64(lagFlushes*span)+i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			flushBatch(t, s, "behind", ts, span)
		}
		if err := s.CompactPending(); err != nil {
			t.Fatal(err)
		}
	}

	s := openTest(t, Options{DisableAutoFlush: true, WindowDuration: time.Hour})
	trigger := s.Health().CompactTrigger
	if trigger != s.Health().MaxStoreFiles/2 || trigger <= maxTierWidth {
		t.Fatalf("default trigger %d: want half of MaxStoreFiles %d and wider than one merge (%d)",
			trigger, s.Health().MaxStoreFiles, maxTierWidth)
	}
	skewed(s, 40, trigger-2)
	if st := s.Stats(); st.Compactions != 0 || depthInSync(t, s) != trigger-1 {
		t.Fatalf("lag below the trigger: %d compactions at depth %d, want none at %d",
			st.Compactions, depthInSync(t, s), trigger-1)
	}

	s = openTest(t, Options{DisableAutoFlush: true, WindowDuration: time.Hour})
	skewed(s, 40, trigger-1)
	if st := s.Stats(); st.Compactions == 0 || depthInSync(t, s) >= trigger {
		t.Fatalf("lag at the trigger: %d compactions, depth %d, want tier merges keeping depth under %d",
			st.Compactions, depthInSync(t, s), trigger)
	}
}

// TestStallCountedOncePerBlockedWrite: a writer blocked at the cap is one
// stall however often it wakes. With compaction held off, one Broadcast
// while the store is still over the cap makes the writer re-check and wait
// again; the stall count stays 1 and matches the "write stall" events.
func TestStallCountedOncePerBlockedWrite(t *testing.T) {
	var events bytes.Buffer
	s := openTest(t, Options{
		DisableAutoFlush: true, MaxStoreFiles: 2, CompactTrigger: 2,
		Logger: telemetry.NewLogger(&events, telemetry.LevelWarn),
	})
	// Stop the background compactor, so the only kicks come from the stalled
	// writer's loop, and hold compactMu so nothing lowers the depth.
	s.stopOnce.Do(func() { close(s.quit) })
	s.bg.Wait()
	flushBatch(t, s, "a", 0, 10)
	flushBatch(t, s, "b", 0, 10)
	if d := depthInSync(t, s); d != 2 {
		t.Fatalf("depth %d, want the cap 2", d)
	}
	select {
	case <-s.compactKick: // the flushes' kicks
	default:
	}
	s.compactMu.Lock()

	done := make(chan error, 1)
	go func() { done <- s.Put(sensorKey("c", 5), []byte("v")) }()
	for s.Health().StallWaiters == 0 {
		time.Sleep(time.Millisecond)
	}
	// The writer holds mu from the cap check until Wait releases it, so
	// taking mu here means it is waiting; its first pass has kicked.
	s.mu.Lock()
	<-s.compactKick
	s.flushCond.Broadcast()
	s.mu.Unlock()
	<-s.compactKick // the writer re-checked the cap and is waiting again

	if st := s.Stats(); st.StallEvents != 1 {
		t.Fatalf("StallEvents = %d after one wake-up of one blocked write, want 1", st.StallEvents)
	}
	s.compactMu.Unlock()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, st := strings.Count(events.String(), `"msg":"write stall`), s.Stats(); int64(n) != st.StallEvents {
		t.Fatalf("%d write stall events, StallEvents %d", n, st.StallEvents)
	}
}
