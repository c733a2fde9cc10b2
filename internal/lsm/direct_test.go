package lsm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
)

// foldDirect runs foldBothWays and reports whether AggregateTime took the
// direct path (lsm.agg_folds_direct moved).
func foldDirect(t testing.TB, s *Store, lo, hi []byte, minTS, maxTS, windowMS int64, funcs AggFuncs) (AggResult, bool) {
	t.Helper()
	before := s.aggFoldsDirect.Load()
	res := foldBothWays(t, s, lo, hi, minTS, maxTS, windowMS, funcs)
	return res, s.aggFoldsDirect.Load() > before
}

// mustFold is foldDirect that also requires the path taken and the rows.
func mustFold(t testing.TB, s *Store, lo, hi []byte, minTS, maxTS, windowMS int64, funcs AggFuncs, wantDirect bool, wantRows int64) AggResult {
	t.Helper()
	res, direct := foldDirect(t, s, lo, hi, minTS, maxTS, windowMS, funcs)
	if direct != wantDirect || res.RowsFolded != wantRows {
		t.Fatalf("fold took the direct path: %v, folded %d rows; want %v and %d", direct, res.RowsFolded, wantDirect, wantRows)
	}
	return res
}

// flushed flushes the store and requires n tables.
func flushed(t testing.TB, s *Store, n int) {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.TableStats()); got != n {
		t.Fatalf("%d tables, want %d", got, n)
	}
}

// TestDirectFoldRandomRanges: in-order ingest of many sensors through small
// memtables, flushed and compacted into time-disjoint tables that touch at
// the instants where a flush split one timestamp across sensors; one-series
// ranges and time filters of every shape fold directly and bit-equal to the
// merge.
func TestDirectFoldRandomRanges(t *testing.T) {
	s := openTest(t, Options{MemtableSize: 96 << 10, BlockSize: 1024})
	const sensors, n = 12, 300
	for i := int64(0); i < n; i++ {
		for j := 0; j < sensors; j++ {
			aggPut(t, s, "sub0", fmt.Sprintf("s%02d", j), 1000+i*10, float64(i*7%113)+float64(j)/3)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.TableStats()); n < 3 {
		t.Fatalf("%d tables; the test needs several", n)
	}
	rng := rand.New(rand.NewSource(1))
	direct := 0
	for q := 0; q < 400; q++ {
		sensor := fmt.Sprintf("s%02d", rng.Intn(sensors))
		a, b := 900+rng.Int63n(3300), 900+rng.Int63n(3300)
		if a > b {
			a, b = b, a
		}
		lo, hi := kvp.RangeFor("sub0", sensor, a, b)
		minTS, maxTS := 900+rng.Int63n(3300), 900+rng.Int63n(3300)
		funcs := allAggFuncs
		if q%5 == 0 {
			funcs = AggCount
		}
		if _, ok := foldDirect(t, s, lo, hi, minTS, maxTS, rng.Int63n(400), funcs); ok {
			direct++
		}
	}
	if direct != 400 {
		t.Fatalf("%d of 400 one-series ranges took the direct fold", direct)
	}
}

// TestDirectFoldTouchingInstant: two tables touch at instant T, and the
// series' reading at T sits in both because it was rewritten. The newer
// table's reading is folded, whether the newer table holds the later
// instants or the earlier ones. Where only one of the two holds T — a flush
// split T across sensors — that one's reading is folded. Kills: the
// boundary instant always goes to the older table, or always to the later
// one in time.
func TestDirectFoldTouchingInstant(t *testing.T) {
	const T = 1000
	lo, hi := kvp.RangeFor("sub0", "sa", 0, 2*T+1)
	for _, tc := range []struct {
		name string
		// first and second are the two tables' instants, written in this
		// order: the second table is the newer.
		first, second [2]int64
		atT           []int // which tables hold sa at T: 0 first, 1 second
		want          float64
	}{
		{"rewrite in the newer, later table", [2]int64{0, T}, [2]int64{T, 2 * T}, []int{0, 1}, 2},
		{"rewrite in the newer, earlier table", [2]int64{T, 2 * T}, [2]int64{0, T}, []int{0, 1}, 2},
		{"T only in the older, earlier table", [2]int64{0, T}, [2]int64{T, 2 * T}, []int{0}, 1},
		{"T only in the newer, later table", [2]int64{0, T}, [2]int64{T, 2 * T}, []int{1}, 2},
		{"T only in the older, later table", [2]int64{T, 2 * T}, [2]int64{0, T}, []int{0}, 1},
		{"T only in the newer, earlier table", [2]int64{T, 2 * T}, [2]int64{0, T}, []int{1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, Options{DisableAutoFlush: true})
			for i, span := range [][2]int64{tc.first, tc.second} {
				for ts := span[0]; ts <= span[1]; ts += 100 {
					if ts != T {
						aggPut(t, s, "sub0", "sa", ts, 0.25)
					}
				}
				for _, at := range tc.atT {
					if at == i {
						aggPut(t, s, "sub0", "sa", T, float64(i+1))
					}
				}
				aggPut(t, s, "sub0", "sb", T, 7) // the table's bounds reach T either way
				flushed(t, s, i+1)
			}
			res := mustFold(t, s, lo, hi, 0, math.MaxInt64, 0, allAggFuncs, true, 21)
			if w := res.Windows[0]; w.Max != tc.want {
				t.Fatalf("reading at T folded as %v, want %v", w.Max, tc.want)
			}
			// The instant alone, and ranges that end at and start at it.
			mustFold(t, s, lo, hi, T, T+1, 0, allAggFuncs, true, 1)
			mustFold(t, s, lo, hi, 0, T, 0, allAggFuncs, true, 10)
			mustFold(t, s, lo, hi, T, math.MaxInt64, 300, allAggFuncs, true, 11)
		})
	}
}

// TestDirectFoldThirdTableAtOneInstant: three tables share instant T (the
// middle one holds T alone); the fold takes the merge, which decides T
// across all three.
func TestDirectFoldThirdTableAtOneInstant(t *testing.T) {
	const T = 1000
	s := openTest(t, Options{DisableAutoFlush: true})
	for ts := int64(0); ts <= T; ts += 100 {
		aggPut(t, s, "sub0", "sa", ts, 1)
	}
	flushed(t, s, 1)
	aggPut(t, s, "sub0", "sa", T, 2)
	flushed(t, s, 2)
	for ts := int64(T + 100); ts <= 2*T; ts += 100 {
		aggPut(t, s, "sub0", "sa", ts, 1)
	}
	aggPut(t, s, "sub0", "sb", T, 3)
	flushed(t, s, 3)
	lo, hi := kvp.RangeFor("sub0", "sa", 0, 2*T+1)
	if w := mustFold(t, s, lo, hi, 0, math.MaxInt64, 0, allAggFuncs, false, 21).Windows[0]; w.Max != 2 {
		t.Fatalf("reading at T folded as %v, want 2", w.Max)
	}
}

// TestDirectFoldFallsBack: rows of the range in the active memtable, or in
// the immutable memtable while its flush is held back, a range over two
// series, and tables that overlap in time all take the merge fold, and
// agree with it. Kills: skipping the memtable check (the direct fold would
// miss the memtable's rows), and folding a key whose tail is not a
// timestamp.
func TestDirectFoldFallsBack(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	lo, hi := kvp.RangeFor("sub0", "sa", 0, 10_000)
	for ts := int64(0); ts < 1000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts)/7)
		aggPut(t, s, "sub0", "sb", ts, 1)
	}
	// A key of the series whose tail is no timestamp: inside [lo, hi), and
	// folded by neither path.
	odd := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 5}
	if err := s.Put(append(odd.Encode(), 1, 2), aggValue(t, odd, 1e9)); err != nil {
		t.Fatal(err)
	}
	flushed(t, s, 1)
	mustFold(t, s, lo, hi, 0, math.MaxInt64, 250, allAggFuncs, true, 100)

	// Rows above the range in the active memtable leave the path alone.
	aggPut(t, s, "sub0", "sa", 20_000, 3)
	aggPut(t, s, "sub0", "sb", 2000, 3)
	mustFold(t, s, lo, hi, 0, math.MaxInt64, 250, allAggFuncs, true, 100)

	aggPut(t, s, "sub0", "sa", 1500, 9)
	mustFold(t, s, lo, hi, 0, math.MaxInt64, 250, allAggFuncs, false, 101)
	// Outside the time filter, but inside [lo, hi): still the merge.
	mustFold(t, s, lo, hi, 0, 1000, 250, allAggFuncs, false, 100)

	s.maintMu.Lock()
	imm, _, err := s.swapMemtable(true)
	if err != nil {
		s.maintMu.Unlock()
		t.Fatal(err)
	}
	mustFold(t, s, lo, hi, 0, math.MaxInt64, 250, allAggFuncs, false, 101)
	err = s.flushMemtable(imm)
	s.maintMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	mustFold(t, s, lo, hi, 0, math.MaxInt64, 250, allAggFuncs, true, 101)

	// Two series: sa's range running into sb's.
	lo2, _ := kvp.RangeFor("sub0", "sa", 500, 0)
	_, hi2 := kvp.RangeFor("sub0", "sb", 0, 500)
	mustFold(t, s, lo2, hi2, 0, math.MaxInt64, 0, allAggFuncs, false, 102)

	// A backfill overlaps the first table's time range.
	aggPut(t, s, "sub0", "sa", 5, 4)
	flushed(t, s, 3)
	mustFold(t, s, lo, hi, 0, math.MaxInt64, 250, allAggFuncs, false, 102)
}

// TestDirectFoldWithoutColumn: a table written without a reading column is
// walked on its data blocks, its rows decoded; a count-only fold decodes no
// value, so it folds over a row no value fold can read. Kills: a count-only
// direct fold that decodes values.
func TestDirectFoldWithoutColumn(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	for ts := int64(0); ts < 1000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, 1)
	}
	flushed(t, s, 1)
	for ts := int64(1000); ts < 2000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, 2)
	}
	bad := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 1505}
	if err := s.Put(bad.Encode(), []byte("not a kvp value")); err != nil {
		t.Fatal(err)
	}
	flushed(t, s, 2)
	if st := s.TableStats(); st[0].ColumnBytes != 0 || st[1].ColumnBytes == 0 {
		t.Fatalf("want the newer table column-less and the older with one: %+v", st)
	}
	lo, hi := kvp.RangeFor("sub0", "sa", 0, 2000)

	c0, d0 := s.aggRowsColumn.Load(), s.aggRowsDecoded.Load()
	if _, direct := foldDirect(t, s, lo, hi, 0, 1500, 0, allAggFuncs); !direct {
		t.Fatal("the fold took the merge")
	}
	// foldBothWays folds twice: directly (column, then data blocks), and
	// through the merge decoding every row.
	if c, d := s.aggRowsColumn.Load()-c0, s.aggRowsDecoded.Load()-d0; c != 100 || d != 50+150 {
		t.Fatalf("%d rows from columns and %d decoded; want 100 and 200", c, d)
	}

	mustFold(t, s, lo, hi, 0, math.MaxInt64, 0, AggCount, true, 201)
	_, err := s.AggregateTime(lo, hi, 0, math.MaxInt64, 0, AggCount|AggSum)
	_, want := s.aggregate(lo, hi, 0, math.MaxInt64, 0, AggCount|AggSum, true, false)
	if !errors.Is(err, kvp.ErrBadValue) || err.Error() != want.Error() {
		t.Fatalf("value fold over the bad row: %v; the merge says %v", err, want)
	}
}

// TestDirectFoldCorruptEntry: a stored value without a row's tag, and a
// reading entry that is not 9 bytes, fail the direct fold with ErrCorrupt
// as they fail the merge, and both charge the bytes read before it.
func TestDirectFoldCorruptEntry(t *testing.T) {
	bad := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 10}.Encode()
	lo, hi := kvp.RangeFor("sub0", "sa", 0, 100)
	for name, stored := range map[string][]byte{"untagged": {0}, "empty": {}, "short reading": {tagReading, 1, 2}} {
		t.Run(name, func(t *testing.T) {
			s := openTest(t, Options{DisableAutoFlush: true})
			aggPut(t, s, "sub0", "sa", 5, 1)
			s.active.Put(bad, stored)
			flushed(t, s, 1)
			var read [2]int64
			for i, direct := range []bool{false, true} {
				before, readBefore := s.aggFoldsDirect.Load(), s.Stats().LogicalReadBytes
				_, err := s.aggregate(lo, hi, 0, 100, 0, allAggFuncs, true, direct)
				if took := s.aggFoldsDirect.Load() > before; !errors.Is(err, ErrCorrupt) || took != direct {
					t.Fatalf("direct path allowed: %v, taken: %v: %v, want ErrCorrupt", direct, took, err)
				}
				read[i] = s.Stats().LogicalReadBytes - readBefore
			}
			if read[0] == 0 || read[0] != read[1] {
				t.Fatalf("read bytes charged: merge %d, direct %d", read[0], read[1])
			}
		})
	}
}

// TestDirectFoldChargesTheMergeLedgers: the same queries down both paths
// charge the same scans, pruning skips, column and decoded rows, and
// logical read bytes — the ledgers lsm.read_amp and the benchmark read.
func TestDirectFoldChargesTheMergeLedgers(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	for ts := int64(0); ts < 1000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts)/3)
		aggPut(t, s, "sub1", "sa", ts, 1) // pruned by key
	}
	flushed(t, s, 1)
	for ts := int64(1000); ts <= 2000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts)/7)
	}
	aggPut(t, s, "sub0", "sa", 1000, 5) // the touching instant, rewritten
	bad := kvp.Key{Substation: "sub0", Sensor: "sb", Timestamp: 1500}
	if err := s.Put(bad.Encode(), []byte("no column for this table")); err != nil {
		t.Fatal(err)
	}
	flushed(t, s, 2)
	for ts := int64(2000); ts < 3000; ts += 10 {
		aggPut(t, s, "sub0", "sa", ts, 1) // pruned by time below
	}
	flushed(t, s, 3)

	type ledger struct{ scans, keySkips, timeSkips, column, decoded, readBytes, direct int64 }
	read := func() ledger {
		st := s.Stats()
		return ledger{st.Scans, st.PruneKeySkips, st.PruneTimeSkips, s.aggRowsColumn.Load(),
			s.aggRowsDecoded.Load(), st.LogicalReadBytes, s.aggFoldsDirect.Load()}
	}
	lo, hi := kvp.RangeFor("sub0", "sa", 0, 5000)
	for _, q := range []struct {
		minTS, maxTS int64
		funcs        AggFuncs
	}{{0, 1999, allAggFuncs}, {500, 1500, AggCount}, {995, 1005, allAggFuncs}} {
		var d [2]ledger
		for i, direct := range []bool{false, true} {
			before := read()
			if _, err := s.aggregate(lo, hi, q.minTS, q.maxTS, 100, q.funcs, true, direct); err != nil {
				t.Fatal(err)
			}
			after := read()
			d[i] = ledger{after.scans - before.scans, after.keySkips - before.keySkips, after.timeSkips - before.timeSkips,
				after.column - before.column, after.decoded - before.decoded, after.readBytes - before.readBytes, after.direct - before.direct}
		}
		if d[0].direct != 0 || d[1].direct != 1 {
			t.Fatalf("%+v: direct folds %d and %d, want 0 and 1", q, d[0].direct, d[1].direct)
		}
		d[1].direct = 0
		if d[0] != d[1] || d[0].scans != 1 || d[0].keySkips != 0 && d[0].timeSkips == 0 || d[0].readBytes == 0 {
			t.Fatalf("%+v: merge charged %+v, direct %+v", q, d[0], d[1])
		}
	}
}

// TestDirectFoldParityUnderChurn: one-series direct folds agree with the
// merge while writers ingest above the queried range, memtables flush and
// the compactor merges cold windows beneath them. Run with -race.
func TestDirectFoldParityUnderChurn(t *testing.T) {
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
				key := kvp.Key{Substation: "sub0", Sensor: sensors[w], Timestamp: settledHi + i*2 + int64(w)}
				if err := s.Put(key.Encode(), aggValue(t, key, float64(i%89))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	defer func() { close(done); wg.Wait() }()

	before := s.Stats()
	churned := func() bool {
		st := s.Stats()
		return st.Flushes-before.Flushes >= 3 && st.Compactions > before.Compactions
	}
	want := map[string]AggResult{}
	direct := 0
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; round < 8 || !churned(); round++ {
		if time.Now().After(deadline) {
			t.Fatalf("store did not churn beneath the folds: %+v", s.Stats())
		}
		for _, sensor := range sensors {
			lo, hi := kvp.RangeFor("sub0", sensor, settledLo, settledHi)
			got, ok := foldDirect(t, s, lo, hi, settledLo, settledHi, 2500, allAggFuncs)
			if ok {
				direct++
			}
			w, seen := want[sensor]
			if !seen {
				want[sensor] = got
				continue
			}
			if got.RowsFolded != w.RowsFolded || len(got.Windows) != len(w.Windows) {
				t.Fatalf("round %d %s: %d rows in %d windows, round 0 had %d in %d", round, sensor, got.RowsFolded, len(got.Windows), w.RowsFolded, len(w.Windows))
			}
			for i := range w.Windows {
				if math.Float64bits(got.Windows[i].Sum) != math.Float64bits(w.Windows[i].Sum) {
					t.Fatalf("round %d %s window %d: sum %v, round 0 had %v", round, sensor, i, got.Windows[i].Sum, w.Windows[i].Sum)
				}
			}
		}
	}
	if direct == 0 {
		t.Fatal("no fold took the direct path")
	}
}

// BenchmarkFoldOneSeries: a one-series 300 s aggregate of 30 s windows over
// 50 sensors of 400 time-ordered 1 KiB readings each, flushed and compacted
// into time-disjoint tables, down each fold path.
func BenchmarkFoldOneSeries(b *testing.B) {
	s := openTest(b, Options{MemtableSize: 1 << 20})
	for i := int64(0); i < 400; i++ {
		for j := 0; j < 50; j++ {
			aggPut(b, s, "sub0", fmt.Sprintf("s%02d", j), i*1000, float64(i%97)+float64(j)/7)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := s.CompactPending(); err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name   string
		direct bool
	}{{"merge", false}, {"direct", true}} {
		b.Run(path.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				from := int64(i%10) * 10_000
				lo, hi := kvp.RangeFor("sub0", fmt.Sprintf("s%02d", i%50), from, from+300_000)
				res, err := s.aggregate(lo, hi, from, from+300_000, 30_000, allAggFuncs, true, path.direct)
				if err != nil || res.RowsFolded != 300 {
					b.Fatalf("folded %d rows: %v", res.RowsFolded, err)
				}
			}
		})
	}
}
