package lsm

import (
	"bytes"
	"errors"
	"math"
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
	dec, err := s.aggregate(lo, hi, minTS, maxTS, windowMS, funcs, false, false)
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

	// Swap by hand with the flush worker locked out: the rows sit in the
	// immutable memtable, new ones arrive in the active one. Then flush the
	// immutable memtable alone.
	s.maintMu.Lock()
	imm, _, err := s.swapMemtable(true)
	if err != nil {
		t.Fatal(err)
	}
	put(1000, 1500)
	fold("immutable memtable mid-flush", 300, 0)
	err = s.flushMemtable(imm)
	s.maintMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	fold("one table, one memtable", 300, 200)

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	put(1500, 2500)
	// Two overwrites in the memtable shadow column entries.
	aggPut(t, s, "sub0", "sa", 500, 1e6)
	aggPut(t, s, "sub0", "sb", 510, -1e6)
	fold("two tables under a shadowing memtable", 500, 298)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fold("three tables", 500, 500)

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
	fold("compaction output", 500, 500)
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
	aggPut(t, s, "sub0", "sa", 20, -2)   // and a sound one
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.TableStats(); len(st) != 2 || st[0].ColumnBytes == 0 || st[1].ColumnBytes != 0 {
		t.Fatalf("inputs: want the newer table with a column and the older without: %+v", st)
	}
	// Merge the two tables, then the output with one newer table.
	for round := 0; round < 2; round++ {
		s.compactMu.Lock()
		s.mu.RLock()
		pick := s.pickSpanLocked(0, len(s.tables), "test")
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
		n := 0
		for ; data.Valid() && col.Valid(); data.Next() {
			want, ok := s.readingColumn(nil, data.Value())
			if !ok || !bytes.Equal(col.Key(), data.Key()) || !bytes.Equal(col.Value(), want) {
				t.Fatalf("entry %d (%q): column holds %x, the value projects to %x", n, data.Key(), col.Value(), want)
			}
			n++
			col.Next()
		}
		if data.Valid() || col.Valid() || data.Error() != nil || col.Error() != nil {
			t.Fatalf("sequences diverge after %d entries", n)
		}
		// 330 distinct keys, and the row added below for the second round.
		if n != 330+round {
			t.Fatalf("round %d: %d entries, want %d", round, n, 330+round)
		}
		lo, hi := aggRange("sub0", 0, 0)
		if res := foldBothWays(t, s, lo, hi, 0, math.MaxInt64, 500, allAggFuncs); res.RowsFolded != int64(n) {
			t.Fatalf("folded %d rows, want %d", res.RowsFolded, n)
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
	_, wantErr := s.aggregate(lo, hi, 0, math.MaxInt64, 0, allAggFuncs, false, false)
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
	m.put("sa", settledLo, 0.5) // an overwrite in a newer table
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
