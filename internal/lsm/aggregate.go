package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"tpcxiot/internal/kvp"
)

// ErrBadWindow rejects aggregation requests whose window width is negative
// (0 means one window spanning the whole time range).
var ErrBadWindow = errors.New("lsm: negative aggregation window")

// AggFuncs is a bitmask selecting which aggregate functions a fold computes.
// Count is always tracked (avg needs it for mergeable partials); the flags
// record what the caller asked for so count-only requests can skip value
// decoding entirely.
type AggFuncs uint8

const (
	AggCount AggFuncs = 1 << iota
	AggMin
	AggMax
	AggSum
	AggAvg
)

// NeedsValue reports whether the fold must decode row values. Count-only
// aggregations fold keys alone.
func (f AggFuncs) NeedsValue() bool { return f&(AggMin|AggMax|AggSum|AggAvg) != 0 }

// String renders the mask for traces and error messages.
func (f AggFuncs) String() string {
	var b []byte
	add := func(s string) {
		if len(b) > 0 {
			b = append(b, '|')
		}
		b = append(b, s...)
	}
	if f&AggCount != 0 {
		add("count")
	}
	if f&AggMin != 0 {
		add("min")
	}
	if f&AggMax != 0 {
		add("max")
	}
	if f&AggSum != 0 {
		add("sum")
	}
	if f&AggAvg != 0 {
		add("avg")
	}
	if len(b) == 0 {
		return "none"
	}
	return string(b)
}

// WindowAgg is the partial aggregate of one series over one time window.
// Partials merge exactly: count and sum add, min/max take extrema, and avg
// is always derived as Sum/Count — never averaged across partials — so
// merging region- or file-level partials in any order yields the same
// result as a single fold over all rows.
type WindowAgg struct {
	Series      []byte  `json:"series"`
	WindowStart int64   `json:"window_start"` // unix ms, inclusive
	Count       int64   `json:"count"`
	Min         float64 `json:"min"` // +Inf when no value rows folded
	Max         float64 `json:"max"` // -Inf when no value rows folded
	Sum         float64 `json:"sum"`
}

// newWindowAgg returns an empty partial with min/max at their identities.
func newWindowAgg(series []byte, windowStart int64) WindowAgg {
	return WindowAgg{
		Series:      series,
		WindowStart: windowStart,
		Min:         math.Inf(1),
		Max:         math.Inf(-1),
	}
}

// add folds one row's reading into the partial.
func (w *WindowAgg) add(v float64) {
	if v < w.Min {
		w.Min = v
	}
	if v > w.Max {
		w.Max = v
	}
	w.Sum += v
}

// Avg derives the mean from the mergeable (sum, count) pair; 0 for an empty
// partial.
func (w WindowAgg) Avg() float64 {
	if w.Count == 0 {
		return 0
	}
	return w.Sum / float64(w.Count)
}

// Merge folds another partial for the same (series, window) into w.
func (w *WindowAgg) Merge(o WindowAgg) {
	w.Count += o.Count
	if o.Min < w.Min {
		w.Min = o.Min
	}
	if o.Max > w.Max {
		w.Max = o.Max
	}
	w.Sum += o.Sum
}

// AggResult is one fold's output: the per-(series, window) partials in key
// order — series ascending, windows ascending within a series, empty windows
// omitted — plus the number of rows reduced server-side, the measure of how
// many 1 KiB rows never crossed the wire.
type AggResult struct {
	Windows    []WindowAgg
	RowsFolded int64
}

// AggregateTime folds live entries with lo <= key < hi and
// minTS <= timestamp < maxTS into per-series, per-window partial aggregates
// in a single pass over a snapshot-pinned merge iterator. Table files whose
// key or time bounds cannot intersect the request are pruned before any I/O
// (the lsm.prune_key_skips / lsm.prune_time_skips counters), so cold
// windows never leave disk.
//
// windowMS is the window width; windows are aligned to minTS, i.e. window k
// covers [minTS + k*windowMS, minTS + (k+1)*windowMS). windowMS = 0 folds
// the whole range into one window per series.
//
// Because keys sort by (series, timestamp), each (series, window) pair
// arrives as one contiguous run: the fold keeps a single open partial and
// O(1) working state beyond the output slice. When funcs needs no values
// (count-only), row values are never decoded — the fast path that makes
// count queries pure key iteration.
//
// A table written with a reading column is folded from that column — blocks
// of (key, float64 bits) a sixtieth the size of its data blocks — and every
// other source (memtables, tables without a column) from its rows through
// kvp.ReadingOf. Either way each row's reading is added one by one in
// key order, so the result does not depend on which path served a row; the
// lsm.agg_rows_column / lsm.agg_rows_decoded counters say which did.
func (s *Store) AggregateTime(lo, hi []byte, minTS, maxTS, windowMS int64, funcs AggFuncs) (AggResult, error) {
	return s.aggregate(lo, hi, minTS, maxTS, windowMS, funcs, true)
}

// aggregate is AggregateTime; column false keeps every table on its data
// blocks, the reference the parity tests compare the column fold with.
func (s *Store) aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs AggFuncs, column bool) (AggResult, error) {
	if windowMS < 0 {
		return AggResult{}, ErrBadWindow
	}
	if windowMS == 0 {
		windowMS = maxTS - minTS
		if windowMS <= 0 {
			windowMS = 1
		}
	}
	it, err := s.newIter(lo, hi, minTS, maxTS, true, column)
	if err != nil {
		return AggResult{}, err
	}
	defer it.Close()

	needValue := funcs.NeedsValue()
	var res AggResult
	var fromColumn int64 // rows a reading column served; the rest came as full values
	var cur WindowAgg
	open := false
	for ; it.Valid(); it.Next() {
		key := it.Key()
		series, ok := kvp.SeriesOf(key)
		if !ok {
			continue
		}
		ts, ok := kvp.TimestampOf(key)
		if !ok {
			continue // unreachable: the time filter already required one
		}
		wstart := minTS + (ts-minTS)/windowMS*windowMS
		if !open || wstart != cur.WindowStart || !bytes.Equal(series, cur.Series) {
			if open {
				res.Windows = append(res.Windows, cur)
			}
			// The iterator owns the series bytes only until Next: copy.
			cur = newWindowAgg(append([]byte(nil), series...), wstart)
			open = true
		}
		cur.Count++
		res.RowsFolded++
		stored := it.merged.Value()
		if stored[0] == tagReading {
			fromColumn++
			if needValue {
				if len(stored) != 9 {
					return AggResult{}, fmt.Errorf("%w: reading column entry of %d bytes", ErrCorrupt, len(stored))
				}
				cur.add(math.Float64frombits(binary.LittleEndian.Uint64(stored[1:])))
			}
		} else if needValue {
			v, err := kvp.ReadingOf(stored[1:])
			if err != nil {
				return AggResult{}, fmt.Errorf("lsm: aggregate %s: %w", funcs, err)
			}
			cur.add(v)
		}
	}
	if err := it.Error(); err != nil {
		return AggResult{}, err
	}
	if open {
		res.Windows = append(res.Windows, cur)
	}
	s.aggRowsColumn.Add(fromColumn)
	s.aggRowsDecoded.Add(res.RowsFolded - fromColumn)
	return res, nil
}
