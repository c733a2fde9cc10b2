package lsm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/sstable"
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
// over a snapshot pinned at the call. Table files whose key or time bounds
// cannot intersect the request are pruned before any I/O (the
// lsm.prune_key_skips / lsm.prune_time_skips counters), so cold windows
// never leave disk.
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
// The fold takes one of two paths. When lo and hi are keys of one series
// (the kvp.RangeFor shape), neither memtable holds a key in [lo, hi), and
// the tables left after pruning are time-disjoint — sorted by their minimum
// timestamp, each ends at or before the next begins — it walks the tables
// one after another in time order, straight off their iterators
// (lsm.agg_folds_direct counts these). Where two tables touch at one
// instant, the newer table owns it, as the merge's shadowing would decide.
// Any other aggregate runs the rows through the merge iterator. Both paths
// yield the same rows in the same order. The direct walk visits only keys
// inside [minTS, maxTS), so a corrupt entry of [lo, hi) outside it fails
// only the merge, which steps over it.
//
// A table written with a reading column is folded from that column — blocks
// of (key, float64 bits) a sixtieth the size of its data blocks — and every
// other source (memtables, tables without a column) from its rows through
// kvp.ReadingOf. Either way each row's reading is added one by one in
// key order, so the result does not depend on which path served a row; the
// lsm.agg_rows_column / lsm.agg_rows_decoded counters say which did.
func (s *Store) AggregateTime(lo, hi []byte, minTS, maxTS, windowMS int64, funcs AggFuncs) (AggResult, error) {
	return s.aggregate(lo, hi, minTS, maxTS, windowMS, funcs, true, true)
}

// aggregate is AggregateTime. direct false always takes the merge fold;
// column false also keeps every table on its data blocks, the reference the
// parity tests compare the other paths with.
func (s *Store) aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs AggFuncs, column, direct bool) (AggResult, error) {
	if windowMS < 0 {
		return AggResult{}, ErrBadWindow
	}
	if windowMS == 0 {
		windowMS = maxTS - minTS
		if windowMS <= 0 {
			windowMS = 1
		}
	}
	p, err := s.pin(lo, hi, minTS, maxTS, true)
	if err != nil {
		return AggResult{}, err
	}
	if direct {
		if shares, ok := directShares(p, lo, hi, minTS, maxTS); ok {
			defer p.release()
			s.aggFoldsDirect.Inc()
			f := fold{funcs: funcs, minTS: minTS, windowMS: windowMS}
			err := f.foldShares(shares, lo[:len(lo)-8])
			// Charged on error too, as the merge's iterator charges at Close.
			s.logicalReadBytes.Add(f.readBytes)
			if err != nil {
				return AggResult{}, err
			}
			return s.finish(&f), nil
		}
	}
	it := s.mergePinned(p, lo, hi, minTS, maxTS, true, column)
	defer it.Close()

	f := fold{funcs: funcs, minTS: minTS, windowMS: windowMS}
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
		if err := f.row(series, ts, it.merged.Value()); err != nil {
			return AggResult{}, err
		}
	}
	if err := it.Error(); err != nil {
		return AggResult{}, err
	}
	return s.finish(&f), nil
}

// fold is the state of one aggregate: the closed partials, the open one,
// and the row ledgers both paths charge.
type fold struct {
	funcs           AggFuncs
	minTS, windowMS int64

	res        AggResult
	cur        WindowAgg
	open       bool
	fromColumn int64 // rows a reading column served; the rest came as full values
	readBytes  int64 // user bytes the direct path folded, as an iterator's read ledger counts them

	// The direct path's row for a touching instant, set aside by one
	// share's walk for the next to fold or drop; held says there is one.
	aside []byte
	held  bool
}

// row folds one row of series at ts, its stored value tagged.
func (f *fold) row(series []byte, ts int64, stored []byte) error {
	wstart := f.minTS + (ts-f.minTS)/f.windowMS*f.windowMS
	if !f.open || wstart != f.cur.WindowStart || !bytes.Equal(series, f.cur.Series) {
		if f.open {
			f.res.Windows = append(f.res.Windows, f.cur)
		}
		// The source owns the series bytes only until it moves on: copy.
		f.cur = newWindowAgg(append([]byte(nil), series...), wstart)
		f.open = true
	}
	f.cur.Count++
	f.res.RowsFolded++
	if stored[0] == tagReading {
		f.fromColumn++
		if f.funcs.NeedsValue() {
			if len(stored) != 9 {
				return fmt.Errorf("%w: reading column entry of %d bytes", ErrCorrupt, len(stored))
			}
			f.cur.add(math.Float64frombits(binary.LittleEndian.Uint64(stored[1:])))
		}
	} else if f.funcs.NeedsValue() {
		v, err := kvp.ReadingOf(stored[1:])
		if err != nil {
			return fmt.Errorf("lsm: aggregate %s: %w", f.funcs, err)
		}
		f.cur.add(v)
	}
	return nil
}

// finish closes the open partial and charges the fold's rows to the store.
func (s *Store) finish(f *fold) AggResult {
	if f.open {
		f.res.Windows = append(f.res.Windows, f.cur)
	}
	s.aggRowsColumn.Add(f.fromColumn)
	s.aggRowsDecoded.Add(f.res.RowsFolded - f.fromColumn)
	return f.res
}

// share is one table's part of a direct fold: its keys of the series with
// from <= timestamp < to. touch marks a share that ends where the next
// begins, at the instant to, which both tables may hold.
type share struct {
	t        *tableHandle
	newer    int // the table's place in the snapshot; lower is newer
	from, to int64
	touch    bool
}

// directShares decides whether an aggregate over the snapshot p can fold
// its tables one after another, and if so returns each table's share in
// time order. It requires that lo and hi are keys of one series, that no
// memtable holds a key in [lo, hi), and that the tables, sorted by minimum
// timestamp, are time-disjoint: each one's maximum at or below the next
// one's minimum. Two tables may then touch at one instant; a third table at
// that instant (a table of that instant alone between them) falls back to
// the merge.
func directShares(p pinned, lo, hi []byte, minTS, maxTS int64) ([]share, bool) {
	series, ok := kvp.SeriesOf(lo)
	if !ok || len(hi) != len(lo) || !bytes.HasPrefix(hi, series) {
		return nil, false
	}
	for _, m := range p.mems {
		if m.Valid() && bytes.Compare(m.Key(), hi) < 0 {
			return nil, false
		}
	}
	shares := make([]share, len(p.tables))
	for i, t := range p.tables {
		if !t.hasTS {
			return nil, false
		}
		shares[i] = share{t: t, newer: i}
	}
	slices.SortFunc(shares, func(a, b share) int {
		if c := cmp.Compare(a.t.minTS, b.t.minTS); c != 0 {
			return c
		}
		return cmp.Compare(a.t.maxTS, b.t.maxTS)
	})
	// Every folded key has the series prefix and an 8-byte tail between lo's
	// and hi's, so the time filter narrows that span to [from, to).
	from, to := max(keyTS(lo), minTS), min(keyTS(hi), maxTS)
	for i := range shares {
		sh := &shares[i]
		sh.from, sh.to = from, to
		if i == 0 {
			continue
		}
		prev := &shares[i-1]
		cut := sh.t.minTS
		if prev.t.maxTS > cut || (i > 1 && shares[i-2].t.maxTS == cut) {
			return nil, false
		}
		prev.touch = prev.t.maxTS == cut && from <= cut && cut < to
		prev.to = min(prev.to, cut)
		sh.from = max(sh.from, cut)
	}
	return shares, true
}

// keyTS is the timestamp in a kvp key's fixed 8-byte tail; appendTS is its
// inverse (kvp.Key.Append's encoding).
func keyTS(key []byte) int64 {
	return int64(binary.BigEndian.Uint64(key[len(key)-8:]) ^ (1 << 63))
}

func appendTS(dst []byte, ts int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(ts)^(1<<63))
}

// foldShares folds the shares in time order, each from the table's column
// (its data blocks when it has none), walking from the series' key at from
// to the key at to. A key between them with a tail of another length
// carries no timestamp and is skipped, as the merge's time filter skips it.
//
// Where a share touches the next at instant T, the walk stops at the key
// for T and sets it aside; the next table's first key says whether that
// table holds T too. If it does, the newer of the two tables' rows is
// folded, as the merge's shadowing would decide; if not, the set-aside row
// is. Either way T is folded between the rows before it and after it.
func (f *fold) foldShares(shares []share, series []byte) error {
	for i, sh := range shares {
		if sh.from >= sh.to && !sh.touch && !f.held {
			continue
		}
		it := sh.t.iterator(true)
		err := f.walk(it, series, sh, i > 0 && shares[i-1].newer < sh.newer)
		it.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// walk folds one share off it. prevNewer says whether the previous share's
// table is the newer, for a row that share set aside.
func (f *fold) walk(it *sstable.Iterator, series []byte, sh share, prevNewer bool) error {
	from := appendTS(slices.Clip(series), sh.from)
	to := appendTS(slices.Clip(series), sh.to)
	it.Seek(from)
	if f.held {
		f.held = false
		here := it.Valid() && bytes.Equal(it.Key(), from)
		if here && prevNewer {
			it.Next() // shadowed by the set-aside row
		}
		if !here || prevNewer {
			if err := f.direct(from, f.aside); err != nil {
				return err
			}
		}
	}
	for ; it.Valid(); it.Next() {
		key := it.Key()
		if bytes.Compare(key, to) >= 0 {
			if sh.touch && bytes.Equal(key, to) {
				f.aside, f.held = append(f.aside[:0], it.Value()...), true
			}
			break
		}
		if len(key) != len(to) {
			if err := checkTag(key, it.Value()); err != nil {
				return err
			}
			continue
		}
		if err := f.direct(key, it.Value()); err != nil {
			return err
		}
	}
	return it.Error()
}

// checkTag fails a stored value with no tag byte, or with a tag no row
// carries, as Iter.skip does.
func checkTag(key, stored []byte) error {
	if len(stored) == 0 || (stored[0] != tagValue && stored[0] != tagReading) {
		return fmt.Errorf("%w: stored value %x under key %q", ErrCorrupt, stored, key)
	}
	return nil
}

// direct folds one row the direct path walked, charging its bytes as an
// iterator's read ledger would.
func (f *fold) direct(key, stored []byte) error {
	if err := checkTag(key, stored); err != nil {
		return err
	}
	f.readBytes += int64(len(key) + len(stored) - 1)
	return f.row(key[:len(key)-8], keyTS(key), stored)
}
