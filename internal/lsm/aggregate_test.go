package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"tpcxiot/internal/kvp"
)

// aggValue encodes a kvp-format value carrying reading (two decimals).
func aggValue(t testing.TB, key kvp.Key, reading float64) []byte {
	t.Helper()
	rs := strconv.FormatFloat(reading, 'f', 2, 64)
	pad, err := kvp.PaddingFor(key, rs, "volt")
	if err != nil {
		t.Fatal(err)
	}
	return kvp.Value{Reading: rs, Unit: "volt", Padding: bytes.Repeat([]byte("p"), pad)}.Encode()
}

// aggPut writes one kvp-format reading into the store.
func aggPut(t testing.TB, s *Store, substation, sensor string, ts int64, reading float64) {
	t.Helper()
	key := kvp.Key{Substation: substation, Sensor: sensor, Timestamp: ts}
	if err := s.Put(key.Encode(), aggValue(t, key, reading)); err != nil {
		t.Fatal(err)
	}
}

// aggRange covers every sensor of one substation over [loTS, hiTS).
func aggRange(substation string, loTS, hiTS int64) (lo, hi []byte) {
	lo = append([]byte(substation), 0)
	hi = append([]byte(substation), 1)
	_ = loTS
	_ = hiTS
	return lo, hi
}

const allAggFuncs = AggCount | AggMin | AggMax | AggSum | AggAvg

func TestAggregateTimeWindows(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	// Two sensors, readings at 1 Hz over 10 s. Windows of 5 s should fold
	// each sensor into two partials of five rows.
	for ts := int64(0); ts < 10_000; ts += 1000 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts)/1000)
		aggPut(t, s, "sub0", "sb", ts, 100+float64(ts)/1000)
	}
	lo, hi := aggRange("sub0", 0, 10_000)
	res, err := s.AggregateTime(lo, hi, 0, 10_000, 5000, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsFolded != 20 {
		t.Fatalf("RowsFolded = %d, want 20", res.RowsFolded)
	}
	if len(res.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(res.Windows))
	}
	// Key order: all of sa's windows before sb's.
	want := []struct {
		sensor string
		start  int64
		min    float64
		max    float64
		sum    float64
	}{
		{"sa", 0, 0, 4, 10},
		{"sa", 5000, 5, 9, 35},
		{"sb", 0, 100, 104, 510},
		{"sb", 5000, 105, 109, 535},
	}
	for i, w := range res.Windows {
		series := string(kvp.SensorPrefix("sub0", want[i].sensor))
		if string(w.Series) != series || w.WindowStart != want[i].start {
			t.Fatalf("window %d = (%q, %d), want (%q, %d)",
				i, w.Series, w.WindowStart, series, want[i].start)
		}
		if w.Count != 5 || w.Min != want[i].min || w.Max != want[i].max ||
			math.Abs(w.Sum-want[i].sum) > 1e-9 {
			t.Fatalf("window %d = count %d min %g max %g sum %g, want 5/%g/%g/%g",
				i, w.Count, w.Min, w.Max, w.Sum, want[i].min, want[i].max, want[i].sum)
		}
		if got, want := w.Avg(), want[i].sum/5; math.Abs(got-want) > 1e-9 {
			t.Fatalf("window %d avg = %g, want %g", i, got, want)
		}
	}
}

func TestAggregateTimeEmptyAndSingleRowWindows(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	// One reading in window 0, none in windows 1..8, one in window 9: empty
	// windows must be omitted, not emitted as zero partials.
	aggPut(t, s, "sub0", "sa", 100, 7)
	aggPut(t, s, "sub0", "sa", 9100, 9)
	lo, hi := aggRange("sub0", 0, 10_000)
	res, err := s.AggregateTime(lo, hi, 0, 10_000, 1000, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 2 || res.RowsFolded != 2 {
		t.Fatalf("got %d windows / %d rows, want 2 / 2", len(res.Windows), res.RowsFolded)
	}
	for i, want := range []struct {
		start int64
		v     float64
	}{{0, 7}, {9000, 9}} {
		w := res.Windows[i]
		if w.WindowStart != want.start || w.Count != 1 ||
			w.Min != want.v || w.Max != want.v || w.Sum != want.v {
			t.Fatalf("window %d = %+v, want single row %g at %d", i, w, want.v, want.start)
		}
	}

	// A range with no rows at all.
	res, err = s.AggregateTime(lo, hi, 20_000, 30_000, 1000, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 0 || res.RowsFolded != 0 {
		t.Fatalf("empty range returned %d windows / %d rows", len(res.Windows), res.RowsFolded)
	}
}

func TestAggregateTimeZeroWindowSpansRange(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	for ts := int64(0); ts < 10_000; ts += 1000 {
		aggPut(t, s, "sub0", "sa", ts, 1)
	}
	lo, hi := aggRange("sub0", 0, 10_000)
	res, err := s.AggregateTime(lo, hi, 0, 10_000, 0, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 1 {
		t.Fatalf("windowMS=0 produced %d windows, want 1", len(res.Windows))
	}
	if w := res.Windows[0]; w.Count != 10 || w.Sum != 10 || w.WindowStart != 0 {
		t.Fatalf("window = %+v, want count 10 sum 10 start 0", w)
	}

	if _, err := s.AggregateTime(lo, hi, 0, 10_000, -1, allAggFuncs); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("negative window: %v, want ErrBadWindow", err)
	}
}

// TestAggregateTimeSpansTierBoundary folds a range whose rows straddle
// SSTable boundaries: some rows flushed (twice, to get two table files), some
// still in the memtable, and a window that spans the flush boundary. The fold
// must see one contiguous per-series run regardless of physical placement.
func TestAggregateTimeSpansTierBoundary(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	for ts := int64(0); ts < 4000; ts += 1000 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for ts := int64(4000); ts < 7000; ts += 1000 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for ts := int64(7000); ts < 10_000; ts += 1000 {
		aggPut(t, s, "sub0", "sa", ts, float64(ts))
	}

	lo, hi := aggRange("sub0", 0, 10_000)
	// 3 s windows: window [3000,6000) spans the first flush boundary and
	// window [6000,9000) spans the second (SSTable -> memtable).
	res, err := s.AggregateTime(lo, hi, 0, 10_000, 3000, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 4 || res.RowsFolded != 10 {
		t.Fatalf("got %d windows / %d rows, want 4 / 10", len(res.Windows), res.RowsFolded)
	}
	for i, wantCount := range []int64{3, 3, 3, 1} {
		w := res.Windows[i]
		if w.Count != wantCount {
			t.Fatalf("window %d count = %d, want %d", i, w.Count, wantCount)
		}
		wantSum := 0.0
		for ts := w.WindowStart; ts < w.WindowStart+3000 && ts < 10_000; ts += 1000 {
			wantSum += float64(ts)
		}
		if math.Abs(w.Sum-wantSum) > 1e-9 {
			t.Fatalf("window %d sum = %g, want %g", i, w.Sum, wantSum)
		}
	}
}

// TestAggregateCountFastPathSkipsValueDecode plants a row whose value is not
// a kvp payload: a count-only fold must succeed (values never decoded) while
// a sum fold must surface the decode error.
func TestAggregateCountFastPathSkipsValueDecode(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	aggPut(t, s, "sub0", "sa", 1000, 5)
	key := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 2000}
	if err := s.Put(key.Encode(), []byte{}); err != nil {
		t.Fatal(err)
	}
	lo, hi := aggRange("sub0", 0, 10_000)

	res, err := s.AggregateTime(lo, hi, 0, 10_000, 0, AggCount)
	if err != nil {
		t.Fatalf("count-only fold decoded values: %v", err)
	}
	if res.RowsFolded != 2 || res.Windows[0].Count != 2 {
		t.Fatalf("count fold = %+v, want 2 rows", res)
	}

	if _, err := s.AggregateTime(lo, hi, 0, 10_000, 0, AggCount|AggSum); !errors.Is(err, kvp.ErrBadValue) {
		t.Fatalf("sum fold over bad value: %v, want ErrBadValue", err)
	}
}

// TestAggregateTimePrunesColdFiles verifies the fold reuses the iterator's
// file pruning: aggregating a narrow recent time slice over a store whose
// older windows live in separate flushed files must skip those files by
// their footer time bounds.
func TestAggregateTimePrunesColdFiles(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	// Three generations of data, one flushed file each, 100 s apart.
	for gen := int64(0); gen < 3; gen++ {
		base := gen * 100_000
		for ts := base; ts < base+10_000; ts += 1000 {
			aggPut(t, s, "sub0", "sa", ts, 1)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().PruneTimeSkips
	lo, hi := aggRange("sub0", 200_000, 210_000)
	res, err := s.AggregateTime(lo, hi, 200_000, 210_000, 0, AggCount)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsFolded != 10 {
		t.Fatalf("RowsFolded = %d, want 10", res.RowsFolded)
	}
	if got := s.Stats().PruneTimeSkips - before; got < 2 {
		t.Fatalf("time-pruned files = %d, want >= 2 (the two cold generations)", got)
	}
}

// TestAggregateTimeMatchesStreamedFold is the engine-level parity property:
// for random data spread across memtable and table files, the single-pass
// windowed fold must equal a brute-force fold over the same snapshot
// iterator, window by window and field by field.
func TestAggregateTimeMatchesStreamedFold(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	rng := rand.New(rand.NewSource(1))
	sensors := []string{"sa", "sb", "sc"}
	for i := 0; i < 600; i++ {
		sensor := sensors[rng.Intn(len(sensors))]
		ts := int64(rng.Intn(30_000))
		aggPut(t, s, "sub0", sensor, ts, math.Round(rng.Float64()*1000)/10)
		if i%180 == 179 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	const minTS, maxTS, windowMS = 2500, 27_500, 4000
	lo, hi := aggRange("sub0", minTS, maxTS)
	res, err := s.AggregateTime(lo, hi, minTS, maxTS, windowMS, allAggFuncs)
	if err != nil {
		t.Fatal(err)
	}

	// Brute-force oracle over the plain iterator.
	it, err := s.newIter(lo, hi, minTS, maxTS, true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var oracle []WindowAgg
	var rows int64
	for ; it.Valid(); it.Next() {
		series, ok := kvp.SeriesOf(it.Key())
		if !ok {
			t.Fatalf("non-kvp key %q", it.Key())
		}
		ts, _ := kvp.TimestampOf(it.Key())
		v, err := kvp.ReadingOf(it.Value())
		if err != nil {
			t.Fatal(err)
		}
		wstart := minTS + (ts-minTS)/windowMS*windowMS
		n := len(oracle)
		if n == 0 || oracle[n-1].WindowStart != wstart || !bytes.Equal(oracle[n-1].Series, series) {
			oracle = append(oracle, newWindowAgg(append([]byte(nil), series...), wstart))
			n++
		}
		oracle[n-1].Count++
		oracle[n-1].add(v)
		rows++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}

	if res.RowsFolded != rows {
		t.Fatalf("RowsFolded = %d, oracle folded %d", res.RowsFolded, rows)
	}
	if len(res.Windows) != len(oracle) {
		t.Fatalf("windows = %d, oracle has %d", len(res.Windows), len(oracle))
	}
	for i := range oracle {
		got, want := res.Windows[i], oracle[i]
		if !bytes.Equal(got.Series, want.Series) || got.WindowStart != want.WindowStart ||
			got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
			math.Abs(got.Sum-want.Sum) > 1e-6 {
			t.Fatalf("window %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if rows == 0 {
		t.Fatal("oracle folded no rows; test data broken")
	}
}

func TestAggFuncsString(t *testing.T) {
	for _, tc := range []struct {
		f    AggFuncs
		want string
	}{
		{0, "none"},
		{AggCount, "count"},
		{AggCount | AggAvg, "count|avg"},
		{allAggFuncs, "count|min|max|sum|avg"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", tc.f, got, tc.want)
		}
	}
	if AggCount.NeedsValue() {
		t.Error("count-only mask claims to need values")
	}
	if !(AggCount | AggMin).NeedsValue() {
		t.Error("min mask claims not to need values")
	}
	_ = fmt.Sprintf("%v", allAggFuncs)
}
