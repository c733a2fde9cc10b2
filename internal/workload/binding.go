package workload

import (
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/ycsb"
)

// clientDB adapts an hbase.Client to the ycsb.DB interface. Each worker
// thread receives its own client (and thus its own write buffer), matching
// how YCSB binds one HBase connection per thread.
type clientDB struct {
	c *hbase.Client
}

// Insert implements ycsb.DB.
func (d clientDB) Insert(key, value []byte) error { return d.c.Put(key, value) }

// ScanIter implements ycsb.DB over the client's streaming Scanner: rows
// arrive chunk by chunk from the server-side scanner sessions, so the
// binding holds O(chunk) memory however large the range is.
func (d clientDB) ScanIter(lo, hi []byte, limit int) (ycsb.RowIter, error) {
	sc, err := d.c.NewScanner(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	return scannerIter{sc: sc}, nil
}

// scannerIter adapts hbase.Scanner to ycsb.RowIter.
type scannerIter struct{ sc *hbase.Scanner }

func (it scannerIter) Next() (ycsb.KV, bool, error) {
	row, ok, err := it.sc.Next()
	return ycsb.KV{Key: row.Key, Value: row.Value}, ok, err
}

func (it scannerIter) Close() error { return it.sc.Close() }

// Aggregate implements Aggregator over the cluster's aggregation-pushdown
// RPC: each overlapping region folds its rows server-side and only
// per-window partials cross the client boundary, merged exactly by the
// hbase client ((sum, count) for avg, never mean-of-means).
func (d clientDB) Aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {
	return d.c.Aggregate(lo, hi, minTS, maxTS, windowMS, funcs)
}

// Close implements ycsb.DB, flushing buffered writes.
func (d clientDB) Close() error { return d.c.Close() }

// ClusterBinding returns a ycsb.Binding that opens one buffered client per
// worker thread against the given cluster table, over the cluster's
// loopback TCP wire protocol: each thread gets its own connections to the
// region servers, exercising the client-to-server network path of the SUT.
// The cluster must already be serving TCP. writeBufferBytes is the
// client-side buffer threshold (hbase.client.write.buffer); 0 disables
// buffering.
func ClusterBinding(cl *hbase.Cluster, table string, writeBufferBytes int64) ycsb.Binding {
	return func(thread int) (ycsb.DB, error) {
		c, err := cl.NewTCPClient(table, writeBufferBytes)
		if err != nil {
			return nil, err
		}
		return clientDB{c: c}, nil
	}
}
