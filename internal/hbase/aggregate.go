package hbase

import (
	"bytes"
	"fmt"

	"tpcxiot/internal/lsm"
)

// Aggregate runs an aggregation-pushdown query over [lo, hi) restricted to
// key timestamps in [minTS, maxTS): each overlapping region folds its rows
// into per-(series, window) partial aggregates inside the region server,
// and the client merges the partials — count and sum add, min/max take
// extrema, and avg is derived from the merged (sum, count), never averaged
// across partials. windowMS = 0 folds the whole time range into one window
// per series; see lsm.AggregateTime for windowing semantics.
//
// Before reading, it waits for the client's sender and then flushes only the
// overlapping regions' write buffers (the same read-your-writes rule Scanner
// follows), so an aggregate over one key range never forces unrelated
// regions' batches out early.
//
// The fan-out walks regions in key order. A region boundary set at
// CreateTable can fall inside a series' key run, so the same (series,
// window) may surface from adjacent regions; because partials arrive in key
// order the collision is always between the accumulated tail and the next
// region's head, and Merge resolves it exactly.
func (c *Client) Aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {
	if c.closed {
		return lsm.AggResult{}, ErrClientClosed
	}
	if err := c.settle(); err != nil {
		return lsm.AggResult{}, err
	}
	_, sp := c.tracer.StartTrace("client.aggregate")
	defer sp.End()

	var out lsm.AggResult
	for _, tr := range c.table.regions {
		if !rangesOverlap(lo, hi, tr.start, tr.end) {
			continue
		}
		if err := c.flushRegion(tr, sp); err != nil {
			return lsm.AggResult{}, err
		}
		asp := sp.Child("rpc.aggregate")
		res, err := c.rpc.aggregate(tr, lo, hi, minTS, maxTS, windowMS, funcs, asp)
		asp.End()
		if err != nil {
			return lsm.AggResult{}, fmt.Errorf("hbase: aggregate %s: %w", tr.name, err)
		}
		out.RowsFolded += res.RowsFolded
		for _, w := range res.Windows {
			if n := len(out.Windows); n > 0 &&
				out.Windows[n-1].WindowStart == w.WindowStart &&
				bytes.Equal(out.Windows[n-1].Series, w.Series) {
				out.Windows[n-1].Merge(w)
				continue
			}
			out.Windows = append(out.Windows, w)
		}
	}
	return out, nil
}
