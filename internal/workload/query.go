// Query execution. Every template — the four dashboard comparisons and the
// two analytic ones — is a windowed aggregate over one sensor's key range,
// and RunWindowQuery is the single way to evaluate one: a binding that
// implements Aggregator folds inside the storage tier and returns only
// per-window partials; any other binding streams its rows through
// streamWindows, which folds them here the same way.
package workload

import (
	"fmt"
	"math"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/ycsb"
)

// Aggregator is an optional ycsb.DB capability: bindings whose backend
// evaluates windowed aggregation inside the storage tier implement it (the
// cluster and store bindings forward to hbase.Client.Aggregate and
// lsm.Store.AggregateTime). Aggregate folds rows with lo <= key < hi and
// minTS <= timestamp < maxTS into per-(series, window) partials (windowMS = 0
// means one window spanning the whole range) and reports how many rows were
// reduced server-side.
type Aggregator interface {
	Aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error)
}

// aggFuncsFor maps a dashboard template to the functions it needs.
// Count-only templates ride the server's key-iteration fast path (no value
// decode); the others carry count too, both for the Rows statistic and
// because avg must merge as (sum, count).
func aggFuncsFor(kind QueryKind) lsm.AggFuncs {
	switch kind {
	case QueryMax:
		return lsm.AggCount | lsm.AggMax
	case QueryMin:
		return lsm.AggCount | lsm.AggMin
	case QueryAvg:
		return lsm.AggCount | lsm.AggSum | lsm.AggAvg
	default:
		return lsm.AggCount
	}
}

// windowAggregate converts the partials of one single-window interval query
// (one sensor, windowMS = 0 → at most one window, but merged exactly if a
// binding returns more) to the dashboard Aggregate. Only the fields funcs
// covers are populated; Value() reads exactly those.
func windowAggregate(windows []lsm.WindowAgg, funcs lsm.AggFuncs) Aggregate {
	if len(windows) == 0 {
		return Aggregate{}
	}
	w := windows[0]
	for _, o := range windows[1:] {
		w.Merge(o)
	}
	agg := Aggregate{Rows: int(w.Count)}
	if funcs&lsm.AggMax != 0 {
		agg.Max = w.Max
	}
	if funcs&lsm.AggMin != 0 {
		agg.Min = w.Min
	}
	if funcs&(lsm.AggSum|lsm.AggAvg) != 0 {
		agg.Avg = w.Avg() // mean from (sum, count), never of means
	}
	return agg
}

// RunQuery executes one dashboard query template against db at time now:
// the recent and the historical 5-second interval of one sensor, each
// reduced to the statistics the template needs (plus Rows); fields other
// templates would read are zero. Exported so examples and the query tooling
// can issue standalone dashboard queries.
func RunQuery(db ycsb.DB, kind QueryKind, substation, sensor string,
	now time.Time, histStart time.Time) (QueryResult, error) {

	res := QueryResult{Kind: kind, Substation: substation, Sensor: sensor}
	funcs := aggFuncsFor(kind)
	interval := func(minTS int64) (Aggregate, error) {
		r, err := RunWindowQuery(db, substation, sensor, minTS, minTS+RecentWindow.Milliseconds(), 0, funcs)
		return windowAggregate(r.Windows, funcs), err
	}
	var err error
	if res.Recent, err = interval(now.UnixMilli() - RecentWindow.Milliseconds()); err != nil {
		return res, fmt.Errorf("workload: recent aggregate: %w", err)
	}
	if res.Historical, err = interval(histStart.UnixMilli()); err != nil {
		return res, fmt.Errorf("workload: historical aggregate: %w", err)
	}
	return res, nil
}

// RunWindowQuery executes one windowed aggregation for a single sensor:
// per-window partials over [minTS, maxTS) with the given window width
// (0 = one window). With an aggregating binding the fold happens inside the
// storage tier and RowsFolded reports how many rows were reduced there;
// otherwise the rows stream to the client and fold locally (RowsFolded
// counts the same rows, but every one crossed the binding). Empty windows
// are omitted on both paths.
func RunWindowQuery(db ycsb.DB, substation, sensor string,
	minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {

	lo, hi := kvp.RangeFor(substation, sensor, minTS, maxTS)
	if agg, ok := db.(Aggregator); ok {
		return agg.Aggregate(lo, hi, minTS, maxTS, windowMS, funcs)
	}
	return streamWindows(db, lo, hi, minTS, maxTS, windowMS, funcs)
}

// streamWindows is the client-side fold: a streamed scan reduced to windows
// as rows arrive, in O(chunk) memory. It mirrors the engine-side fold
// exactly (same windowing, same merge identities), which makes it both the
// fallback for bindings without Aggregator (MemDB, null sinks) and the
// oracle the parity property tests compare the capability path against.
func streamWindows(db ycsb.DB, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {
	if windowMS <= 0 {
		windowMS = maxTS - minTS
		if windowMS <= 0 {
			windowMS = 1
		}
	}
	it, err := db.ScanIter(lo, hi, 0)
	if err != nil {
		return lsm.AggResult{}, err
	}
	defer it.Close()

	needValue := funcs.NeedsValue()
	var res lsm.AggResult
	for {
		row, ok, err := it.Next()
		if err != nil {
			return lsm.AggResult{}, err
		}
		if !ok {
			break
		}
		series, ok := kvp.SeriesOf(row.Key)
		if !ok {
			continue
		}
		ts, ok := kvp.TimestampOf(row.Key)
		if !ok || ts < minTS || ts >= maxTS {
			continue
		}
		wstart := minTS + (ts-minTS)/windowMS*windowMS
		n := len(res.Windows)
		if n == 0 || res.Windows[n-1].WindowStart != wstart || string(res.Windows[n-1].Series) != string(series) {
			res.Windows = append(res.Windows, lsm.WindowAgg{
				Series:      append([]byte(nil), series...),
				WindowStart: wstart,
				Min:         math.Inf(1),
				Max:         math.Inf(-1),
			})
			n++
		}
		w := &res.Windows[n-1]
		w.Count++
		res.RowsFolded++
		if needValue {
			v, err := kvp.ReadingOf(row.Value)
			if err != nil {
				return lsm.AggResult{}, fmt.Errorf("workload: bad stored value: %w", err)
			}
			if v < w.Min {
				w.Min = v
			}
			if v > w.Max {
				w.Max = v
			}
			w.Sum += v
		}
	}
	return res, it.Close()
}
