package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/telemetry"
)

// foldBothWays runs one aggregate twice — from the reading columns, as
// AggregateTime does, and with every table forced onto its data blocks — and
// requires the two results to be the same to the bit: window starts, series,
// counts, extrema and math.Float64bits of every sum. It returns the column
// fold. The range must not be written to between the two folds.
func foldBothWays(t testing.TB, s *Store, lo, hi []byte, minTS, maxTS, windowMS int64, funcs AggFuncs) AggResult {
	t.Helper()
	col, err := s.AggregateTime(lo, hi, minTS, maxTS, windowMS, funcs)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.aggregate(lo, hi, minTS, maxTS, windowMS, funcs, false)
	if err != nil {
		t.Fatal(err)
	}
	if col.RowsFolded != dec.RowsFolded || len(col.Windows) != len(dec.Windows) {
		t.Fatalf("column fold: %d rows in %d windows; value-decode fold: %d in %d",
			col.RowsFolded, len(col.Windows), dec.RowsFolded, len(dec.Windows))
	}
	for i, c := range col.Windows {
		d := dec.Windows[i]
		if !bytes.Equal(c.Series, d.Series) || c.WindowStart != d.WindowStart || c.Count != d.Count ||
			math.Float64bits(c.Min) != math.Float64bits(d.Min) || math.Float64bits(c.Max) != math.Float64bits(d.Max) ||
			math.Float64bits(c.Sum) != math.Float64bits(d.Sum) {
			t.Fatalf("window %d:\n column       %+v\n value-decode %+v", i, c, d)
		}
	}
	return col
}

// columnShare reads the two fold-path counters.
func columnShare(reg *telemetry.Registry) (column, decoded int64) {
	return reg.CounterValue("lsm.agg_rows_column"), reg.CounterValue("lsm.agg_rows_decoded")
}

// TestColumnFoldFollowsRowsThroughTheStore walks one set of rows through
// every place a fold can find them — the active memtable, the immutable
// memtable while its flush is held back, flushed tables, a compaction output
// — checking parity at each and that the counters, TableStat.ColumnBytes and
// the report's inputs say which path served them.
func TestColumnFoldFollowsRowsThroughTheStore(t *testing.T) {
	reg := telemetry.NewRegistry()
	tags := []telemetry.Tag{{Key: "region", Value: "r1"}, {Key: "server", Value: "0"}}
	s := openTest(t, Options{DisableAutoFlush: true, Registry: reg, Tags: tags})
	lo, hi := aggRange("sub0", 0, 0)
	fold := func(stage string, wantRows, wantColumn int64) {
		t.Helper()
		c0, d0 := columnShare(reg)
		res, err := s.AggregateTime(lo, hi, 0, math.MaxInt64, 700, allAggFuncs)
		if err != nil {
			t.Fatal(err)
		}
		c1, d1 := columnShare(reg)
		if res.RowsFolded != wantRows || c1-c0 != wantColumn || d1-d0 != wantRows-wantColumn {
			t.Fatalf("%s: folded %d rows, %d from columns and %d decoded; want %d, %d and %d",
				stage, res.RowsFolded, c1-c0, d1-d0, wantRows, wantColumn, wantRows-wantColumn)
		}
		foldBothWays(t, s, lo, hi, 0, math.MaxInt64, 700, allAggFuncs)
		foldBothWays(t, s, lo, hi, 150, 2450, 0, AggCount)
	}
	put := func(from, to int64) {
		for ts := from; ts < to; ts += 10 {
			aggPut(t, s, "sub0", "sa", ts, float64(ts)/7)
			aggPut(t, s, "sub0", "sb", ts, -float64(ts)/3)
		}
	}

	put(0, 1000)
	fold("active memtable", 200, 0)

	// Rotate by hand with the flush worker locked out: the rows sit in the
	// immutable memtable, new ones arrive in the active one.
	s.maintMu.Lock()
	s.mu.Lock()
	s.rotateMemtableLocked()
	s.mu.Unlock()
	put(1000, 1500)
	fold("immutable memtable mid-flush", 300, 0)
	s.maintMu.Unlock()
	if err := s.Flush(); err != nil { // flushes the immutable memtable
		t.Fatal(err)
	}
	fold("one table, one memtable", 300, 200)

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	put(1500, 2500)
	// An overwrite and a delete in the memtable shadow column entries.
	aggPut(t, s, "sub0", "sa", 500, 1e6)
	if err := s.Delete(kvp.Key{Substation: "sub0", Sensor: "sb", Timestamp: 510}.Encode()); err != nil {
		t.Fatal(err)
	}
	fold("two tables under a shadowing memtable", 499, 298)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fold("three tables", 499, 499)

	for _, ts := range s.TableStats() {
		if ts.ColumnBytes <= 0 || ts.ColumnBytes*20 > ts.SizeBytes {
			t.Fatalf("table %d: column of %d bytes in a %d-byte table of 1 KiB rows", ts.ID, ts.ColumnBytes, ts.SizeBytes)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := s.TableStats()
	if len(stats) != 1 || stats[0].ColumnBytes <= 0 {
		t.Fatalf("after a full compaction: %+v", stats)
	}
	fold("compaction output", 499, 499)
	if got, total := reg.CounterValue(telemetry.Tagged("lsm.agg_rows_column", tags...)), reg.CounterValue("lsm.agg_rows_column"); got == 0 || got != total {
		t.Fatalf("tagged lsm.agg_rows_column = %d, untagged %d", got, total)
	}
}

// TestCompactionRebuildsColumnFromValues: the column of a compaction output
// is the projection of the values the merge wrote, entry for entry — also
// where an input had no column to copy from.
func TestCompactionRebuildsColumnFromValues(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	for ts := int64(0); ts < 3000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts)/7)
	}
	// One undecodable value: this input table is written without a column.
	bad := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 1505}.Encode()
	if err := s.Put(bad, []byte("not a kvp value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for ts := int64(5); ts < 3000; ts += 100 {
		aggPut(t, s, "sub0", "sa", ts, -1)
	}
	aggPut(t, s, "sub0", "sa", 1505, 42) // the newer table overwrites the bad value
	if err := s.Delete(kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 20}.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.TableStats(); len(st) != 2 || st[0].ColumnBytes == 0 || st[1].ColumnBytes != 0 {
		t.Fatalf("inputs: want the newer table with a column and the older without: %+v", st)
	}
	// A hot-tier style merge keeps tombstones; check that shape, then the
	// full merge that drops them.
	for _, dropTombstones := range []bool{false, true} {
		s.compactMu.Lock()
		s.mu.RLock()
		pick := s.pickSpanLocked(0, len(s.tables), "test")
		pick.dropTombstones = dropTombstones
		for _, in := range pick.inputs {
			in.acquire()
		}
		s.mu.RUnlock()
		err := s.compactPick(pick)
		s.compactMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		out := s.tables[0]
		s.mu.RUnlock()
		data, col := out.reader.NewIterator(), out.reader.NewColumnIterator()
		if col == nil {
			t.Fatal("compaction output has no column")
		}
		data.SeekToFirst()
		col.SeekToFirst()
		n, tombs := 0, 0
		for ; data.Valid() && col.Valid(); data.Next() {
			want, ok := s.readingColumn(nil, data.Value())
			if !ok || !bytes.Equal(col.Key(), data.Key()) || !bytes.Equal(col.Value(), want) {
				t.Fatalf("entry %d (%q): column holds %x, the value projects to %x", n, data.Key(), col.Value(), want)
			}
			if data.Value()[0] == tagTombstone {
				tombs++
			}
			n++
			col.Next()
		}
		if data.Valid() || col.Valid() || data.Error() != nil || col.Error() != nil {
			t.Fatalf("sequences diverge after %d entries", n)
		}
		// 330 distinct keys either round: the kept tombstone of the first is
		// replaced by the row added below in the second.
		wantTombs := map[bool]int{false: 1, true: 0}[dropTombstones]
		if n != 330 || tombs != wantTombs {
			t.Fatalf("dropTombstones=%v: %d entries with %d tombstones, want 330 with %d", dropTombstones, n, tombs, wantTombs)
		}
		lo, hi := aggRange("sub0", 0, 0)
		if res := foldBothWays(t, s, lo, hi, 0, math.MaxInt64, 500, allAggFuncs); res.RowsFolded != int64(330-wantTombs) {
			t.Fatalf("folded %d rows, want %d", res.RowsFolded, 330-wantTombs)
		}
		// Give the next round two tables again.
		aggPut(t, s, "sub0", "sa", 2995, 7)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUndecodableValueFallsBackToDataBlocks: a table holding one live value
// kvp.ReadingOf rejects has no column, so a value aggregate over it fails
// with the decode error it always did, count-only still succeeds, and an
// aggregate that does not touch the bad row's table is served from columns.
func TestUndecodableValueFallsBackToDataBlocks(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, Options{DisableAutoFlush: true, Registry: reg})
	for ts := int64(0); ts < 1000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, 1)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for ts := int64(1_000_000); ts < 1_001_000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, 2)
	}
	bad := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 1_000_505}
	if err := s.Put(bad.Encode(), []byte("not a kvp value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.TableStats()
	if len(st) != 2 || st[0].ColumnBytes != 0 || st[1].ColumnBytes == 0 {
		t.Fatalf("want the table with the bad value column-less and the other with one: %+v", st)
	}

	lo, hi := aggRange("sub0", 0, 0)
	_, err := s.AggregateTime(lo, hi, 0, math.MaxInt64, 0, allAggFuncs)
	_, wantErr := s.aggregate(lo, hi, 0, math.MaxInt64, 0, allAggFuncs, false)
	if err == nil || !errors.Is(err, kvp.ErrBadValue) || err.Error() != wantErr.Error() {
		t.Fatalf("aggregate over the bad value: %v; the value-decode fold says %v", err, wantErr)
	}
	if res := foldBothWays(t, s, lo, hi, 0, math.MaxInt64, 0, AggCount); res.RowsFolded != 201 {
		t.Fatalf("count-only folded %d rows, want 201", res.RowsFolded)
	}
	c0, d0 := columnShare(reg)
	if res := foldBothWays(t, s, lo, hi, 0, 1000, 0, allAggFuncs); res.RowsFolded != 100 {
		t.Fatalf("folded %d rows of the sound table, want 100", res.RowsFolded)
	}
	// foldBothWays folds twice: once from the column, once decoding.
	if c1, d1 := columnShare(reg); c1-c0 != 100 || d1-d0 != 100 {
		t.Fatalf("sound table: %d rows from columns, %d decoded; want 100 and 100", c1-c0, d1-d0)
	}
}

// v2StoreOps is what the parent commit applied, through an oooModel, to
// write testdata/v2store: two footer-v2 tables, the second overwriting and
// deleting rows of the first (its WAL is not kept: everything was flushed).
func v2StoreOps(put func(sensor string, ts int64, reading float64), del func(sensor string, ts int64), flush func()) {
	for ts := int64(0); ts < 5000; ts += 250 {
		for i, sen := range []string{"sa", "sb", "sc"} {
			put(sen, ts, float64(ts%977)/7+float64(i))
		}
	}
	flush()
	for ts := int64(5000); ts < 10_000; ts += 250 {
		put("sa", ts, float64(ts%977)/7)
	}
	for ts := int64(250); ts <= 500; ts += 250 {
		put("sb", ts, -float64(ts)/3)
	}
	del("sc", 1000)
	del("sc", 1250)
	flush()
}

// TestStoreWrittenByParentCommitUpgradesInPlace opens a copy of a store
// directory the parent commit wrote (footer v2, no columns), checks it
// against the oracle, then keeps using it: new flushes are v3 tables that
// shadow v2 rows, the memtable shadows both, and Get, scan and AggregateTime
// stay equal to the oracle over the mix — the v2 rows decoded from data
// blocks, the v3 rows read from columns. A full compaction then rewrites the
// lot into one table with a column.
func TestStoreWrittenByParentCommitUpgradesInPlace(t *testing.T) {
	dir := t.TempDir()
	files, err := os.ReadDir("testdata/v2store")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata/v2store", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	s := openTest(t, Options{Dir: dir, DisableAutoFlush: true, Registry: reg})
	m := &oooModel{t: t, s: s, live: map[string]float64{}}
	v2StoreOps(m.put, m.del, func() { m.batch = m.batch[:0] }) // the oracle only: the rows are on disk

	checkAll := func(stage string) {
		t.Helper()
		m.check(stage) // AggregateTime == oracle == value-decode fold, bit for bit
		n := 0
		err := scan(s, nil, nil, func(k, v []byte) error {
			want, ok := m.live[string(k)]
			if got, err := kvp.ReadingOf(v); !ok || err != nil || got != want {
				return fmt.Errorf("scan yields %q = %v (%v), oracle has %v (present %v)", k, got, err, want, ok)
			}
			n++
			return nil
		})
		if err != nil || n != len(m.live) {
			t.Fatalf("%s: scanned %d of %d rows: %v", stage, n, len(m.live), err)
		}
		for k, want := range m.live {
			v, ok, err := s.Get([]byte(k))
			if got, rerr := kvp.ReadingOf(v); err != nil || !ok || rerr != nil || got != want {
				t.Fatalf("%s: Get(%q) = %v, %v, %v; oracle has %v", stage, k, got, ok, err, want)
			}
		}
		// Every key some stage deletes: absent unless the oracle has it back.
		for _, k := range []kvp.Key{{Sensor: "sc", Timestamp: 1000}, {Sensor: "sc", Timestamp: 1250},
			{Sensor: "sb", Timestamp: 1500}, {Sensor: "sb", Timestamp: 10_250}} {
			k.Substation = "sub0"
			if _, live := m.live[string(k.Encode())]; live {
				continue
			}
			if _, ok, err := s.Get(k.Encode()); ok || err != nil {
				t.Fatalf("%s: deleted %s@%d: present %v, err %v", stage, k.Sensor, k.Timestamp, ok, err)
			}
		}
	}

	if st := s.TableStats(); len(st) != 2 || st[0].ColumnBytes != 0 || st[1].ColumnBytes != 0 {
		t.Fatalf("the parent's store should open as two column-less tables: %+v", st)
	}
	checkAll("as written by the parent")
	if st := s.Stats(); st.RunReads == 0 || st.RunBytes > st.DiskReadBytes {
		t.Fatalf("scanning the v2 tables should read them in runs: %d runs, %d of %d disk bytes", st.RunReads, st.RunBytes, st.DiskReadBytes)
	}
	if c, d := columnShare(reg); c != 0 || d == 0 {
		t.Fatalf("v2-only store: %d rows from columns, %d decoded", c, d)
	}

	// A v3 table over the v2 ones: new rows, an overwrite of a v2 row, a
	// delete of another, and a re-insert of a row the v2 tables deleted.
	for ts := int64(10_000); ts < 12_000; ts += 250 {
		m.put("sb", ts, float64(ts)/11)
	}
	m.put("sa", 750, 999.25)
	m.del("sb", 1500)
	m.put("sc", 1000, 3.5)
	m.flush()
	// And a memtable over all three.
	m.put("sa", 750, -999.25)
	m.put("sc", 20_000, 1)
	m.del("sb", 10_250)
	if err := s.ApplyBatch(m.batch); err != nil {
		t.Fatal(err)
	}
	m.batch = m.batch[:0]
	if st := s.TableStats(); len(st) != 3 || st[0].ColumnBytes == 0 || st[1].ColumnBytes != 0 {
		t.Fatalf("want one v3 table over the two v2 ones: %+v", st)
	}
	c0, d0 := columnShare(reg)
	checkAll("v2 + v3 + memtable")
	if c1, d1 := columnShare(reg); c1 == c0 || d1 == d0 {
		t.Fatalf("mixed store: column rows %d -> %d, decoded rows %d -> %d; both paths should have served", c0, c1, d0, d1)
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.TableStats(); len(st) != 1 || st[0].ColumnBytes == 0 {
		t.Fatalf("full compaction of v2 and v3 inputs: %+v", st)
	}
	c0, d0 = columnShare(reg)
	checkAll("rewritten as one v3 table")
	// m.check folds twice, the second time forced onto the data blocks.
	if c1, d1 := columnShare(reg); c1-c0 != d1-d0 || c1 == c0 {
		t.Fatalf("after the rewrite the column fold should serve every row: %d column, %d decoded", c1-c0, d1-d0)
	}
}

// TestColumnFoldParityUnderChurn: the two folds agree while writers ingest,
// memtables flush and the compactor merges beneath them. Writers append above
// the queried range and backfill below it, so the queried rows never change
// while the tables holding them do. Run with -race.
func TestColumnFoldParityUnderChurn(t *testing.T) {
	s := openTest(t, Options{MemtableSize: 48 << 10, CompactTrigger: 3, WindowDuration: 20 * time.Second})
	const settledLo, settledHi = int64(100_000), int64(130_000)
	m := &oooModel{t: t, s: s, live: map[string]float64{}}
	sensors := []string{"sa", "sb", "sc"}
	for i, ts := 0, settledLo; ts < settledHi; i, ts = i+1, ts+37 {
		m.put(sensors[i%3], ts, float64(ts%1013)/9)
		if i%5 == 0 {
			m.put(sensors[(i+1)%3], ts, -float64(i)) // same instant, another series
		}
		if i%200 == 199 {
			m.flush()
		}
	}
	m.del("sa", settledLo)
	m.flush()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ts := settledHi + i*2 + int64(w) // in order, above the range
				if i%4 == 0 {
					ts = settledLo - 1 - i // backfill below it, into older windows
				}
				key := kvp.Key{Substation: "sub0", Sensor: sensors[w], Timestamp: ts}
				if err := s.Put(key.Encode(), aggValue(t, key, float64(i%89))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	defer func() { close(done); wg.Wait() }()

	lo, hi := aggRange("sub0", 0, 0)
	var want AggResult
	before := s.Stats()
	churned := func() bool {
		st := s.Stats()
		return st.Flushes-before.Flushes >= 3 && st.Compactions > before.Compactions
	}
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; round < 8 || !churned(); round++ {
		if time.Now().After(deadline) {
			t.Fatalf("store did not churn beneath the folds: %+v", s.Stats())
		}
		got := foldBothWays(t, s, lo, hi, settledLo, settledHi, 2500, allAggFuncs)
		if round == 0 {
			want = got
			continue
		}
		if got.RowsFolded != want.RowsFolded || len(got.Windows) != len(want.Windows) {
			t.Fatalf("round %d: %d rows in %d windows, round 0 had %d in %d", round, got.RowsFolded, len(got.Windows), want.RowsFolded, len(want.Windows))
		}
		for i := range want.Windows {
			if math.Float64bits(got.Windows[i].Sum) != math.Float64bits(want.Windows[i].Sum) {
				t.Fatalf("round %d window %d: sum %v, round 0 had %v", round, i, got.Windows[i].Sum, want.Windows[i].Sum)
			}
		}
	}
}
