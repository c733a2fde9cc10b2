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

// Read implements ycsb.DB.
func (d clientDB) Read(key []byte) ([]byte, bool, error) { return d.c.Get(key) }

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
// worker thread against the given cluster table. writeBufferBytes is the
// client-side buffer threshold (hbase.client.write.buffer); 0 disables
// buffering.
func ClusterBinding(cl *hbase.Cluster, table string, writeBufferBytes int64) ycsb.Binding {
	return func(thread int) (ycsb.DB, error) {
		c, err := cl.NewClient(table, writeBufferBytes)
		if err != nil {
			return nil, err
		}
		return clientDB{c: c}, nil
	}
}

// ClusterBindingTCP is ClusterBinding over the cluster's loopback TCP wire
// protocol: each worker thread gets its own connections to the region
// servers, exercising the client-to-server network path of the SUT. The
// cluster must already be serving TCP.
func ClusterBindingTCP(cl *hbase.Cluster, table string, writeBufferBytes int64) ycsb.Binding {
	return func(thread int) (ycsb.DB, error) {
		c, err := cl.NewTCPClient(table, writeBufferBytes)
		if err != nil {
			return nil, err
		}
		return clientDB{c: c}, nil
	}
}

// storeDB adapts a single embedded LSM store to ycsb.DB — the smallest
// possible gateway: one node, no replication, no network. Useful for
// embedded deployments and for isolating the storage engine in benchmarks.
type storeDB struct {
	s *lsm.Store
}

// Insert implements ycsb.DB.
func (d storeDB) Insert(key, value []byte) error { return d.s.Put(key, value) }

// Read implements ycsb.DB.
func (d storeDB) Read(key []byte) ([]byte, bool, error) { return d.s.Get(key) }

// ScanIter implements ycsb.DB directly over the engine's snapshot-pinned
// iterator — the zero-copy embedded path: rows are borrowed from the LSM
// snapshot until the next call, exactly the RowIter contract.
func (d storeDB) ScanIter(lo, hi []byte, limit int) (ycsb.RowIter, error) {
	it, err := d.s.NewIterator(lo, hi)
	if err != nil {
		return nil, err
	}
	return &lsmIter{it: it, limited: limit > 0, remaining: limit}, nil
}

// lsmIter adapts lsm.Iter to ycsb.RowIter with a client-side row limit.
type lsmIter struct {
	it        *lsm.Iter
	started   bool
	limited   bool
	remaining int
}

func (l *lsmIter) Next() (ycsb.KV, bool, error) {
	if l.limited && l.remaining <= 0 {
		return ycsb.KV{}, false, nil
	}
	// Advance lazily so the previously returned borrowed slices stay valid
	// until this call, per the RowIter contract.
	if l.started {
		l.it.Next()
	} else {
		l.started = true
	}
	if !l.it.Valid() {
		return ycsb.KV{}, false, l.it.Error()
	}
	if l.limited {
		l.remaining--
	}
	return ycsb.KV{Key: l.it.Key(), Value: l.it.Value()}, true, nil
}

func (l *lsmIter) Close() error { return l.it.Close() }

// Aggregate implements Aggregator directly over the engine's windowed fold
// — the embedded pushdown path (no RPC, but the same snapshot-pinned,
// file-pruned single-pass reduction).
func (d storeDB) Aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {
	return d.s.AggregateTime(lo, hi, minTS, maxTS, windowMS, funcs)
}

// Close implements ycsb.DB; the store is shared, so this is a no-op.
func (d storeDB) Close() error { return nil }

// StoreBinding returns a ycsb.Binding over one embedded LSM store shared by
// all worker threads (the store is safe for concurrent use).
func StoreBinding(s *lsm.Store) ycsb.Binding {
	return func(thread int) (ycsb.DB, error) { return storeDB{s: s}, nil }
}
