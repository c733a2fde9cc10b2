// Package region implements key-range regions, the unit of distribution and
// load balancing in the gateway's storage tier.
//
// As in HBase, a table's keyspace is partitioned into contiguous key ranges.
// Each region owns the half-open interval [StartKey, EndKey) — a nil
// StartKey means "from the beginning", a nil EndKey "to the end" — and is
// backed by its own LSM store. A region's bounds are fixed when it opens: the
// TPCx-IoT deployment pre-splits the table on substation-key boundaries,
// which is the documented best practice for the benchmark's uniform ingest.
package region

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// ErrOutOfRange rejects a key outside the region's bounds.
var ErrOutOfRange = errors.New("region: key outside region bounds")

// Info is a region's identity and bounds.
type Info struct {
	// Table is the owning table's name.
	Table string
	// Name uniquely identifies the region, e.g. "iot,0003".
	Name string
	// StartKey is the inclusive lower bound; nil means the keyspace start.
	StartKey []byte
	// EndKey is the exclusive upper bound; nil means the keyspace end.
	EndKey []byte
}

// Contains reports whether key falls inside the region's bounds.
func (in Info) Contains(key []byte) bool {
	if in.StartKey != nil && bytes.Compare(key, in.StartKey) < 0 {
		return false
	}
	if in.EndKey != nil && bytes.Compare(key, in.EndKey) >= 0 {
		return false
	}
	return true
}

// CheckKeys refuses a batch holding an empty key or a key outside the
// region's bounds: the whole batch, before any of it is applied.
func (in Info) CheckKeys(writes []lsm.Write) error {
	for i := range writes {
		key := writes[i].Key
		if len(key) == 0 {
			return fmt.Errorf("region %s: %w", in.Name, lsm.ErrBadKey)
		}
		if !in.Contains(key) {
			return fmt.Errorf("%w: %q not in %s", ErrOutOfRange, key, in)
		}
	}
	return nil
}

// String renders the region identity with its bounds.
func (in Info) String() string {
	return fmt.Sprintf("%s[%q,%q)", in.Name, in.StartKey, in.EndKey)
}

// Region is a live key range backed by an LSM store.
type Region struct {
	info    Info
	store   *lsm.Store
	service string // trace-span service label, e.g. "node-02/iot,00001"
}

// Open creates or reopens the region's store under dir.
func Open(info Info, dir string, storeOpts lsm.Options) (*Region, error) {
	storeOpts.Dir = filepath.Join(dir, info.Name)
	s, err := lsm.Open(storeOpts)
	if err != nil {
		return nil, fmt.Errorf("region %s: %w", info.Name, err)
	}
	return &Region{
		info:    info,
		store:   s,
		service: filepath.Base(dir) + "/" + info.Name,
	}, nil
}

// Info returns the region's identity.
func (r *Region) Info() Info { return r.info }

// Store exposes the backing store for engine stats and tests.
func (r *Region) Store() *lsm.Store { return r.store }

// ApplyBatch applies a batch of writes in one engine round: a single
// CheckKeys pass over every key, then the store's batched WAL group append
// and memtable apply. It is the region's only write path and makes the
// region a replication.Applier. Rejecting before any write keeps the batch
// all-or-nothing with respect to region bounds. When parent is live
// (the zero TSpan is inert) the apply appears as a "region.apply" span in
// the region's own service (the node dir plus region name, e.g.
// "node-02/iot,00001"), with the engine's WAL/memtable children beneath it.
func (r *Region) ApplyBatch(parent telemetry.TSpan, writes []lsm.Write) error {
	if err := r.info.CheckKeys(writes); err != nil {
		return err
	}
	sp := parent.ChildIn(r.service, "region.apply")
	err := r.store.ApplyBatchTraced(sp, writes)
	sp.End()
	return err
}

// clampRange clips a scan range to the region bounds.
func (r *Region) clampRange(lo, hi []byte) (clo, chi []byte) {
	if r.info.StartKey != nil && (lo == nil || bytes.Compare(lo, r.info.StartKey) < 0) {
		lo = r.info.StartKey
	}
	if r.info.EndKey != nil && (hi == nil || bytes.Compare(hi, r.info.EndKey) > 0) {
		hi = r.info.EndKey
	}
	return lo, hi
}

// NewIterator opens a streaming snapshot iterator over [lo, hi) clipped to
// the region bounds. The iterator pins the store snapshot captured here —
// it survives concurrent flushes and compactions — and must be closed.
func (r *Region) NewIterator(lo, hi []byte) (*lsm.Iter, error) {
	lo, hi = r.clampRange(lo, hi)
	it, err := r.store.NewIterator(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("region %s: %w", r.info.Name, err)
	}
	return it, nil
}

// Stats snapshots the backing store's cumulative activity and amplification
// ledger.
func (r *Region) Stats() lsm.Stats { return r.store.Stats() }

// TableStats reports the backing store's live table files, newest first.
func (r *Region) TableStats() []lsm.TableStat { return r.store.TableStats() }

// TierStats reports the backing store's table set grouped by compaction
// time window, newest first.
func (r *Region) TierStats() []lsm.TierStat { return r.store.TierStats() }

// AggregateTime folds live entries in [lo, hi) clipped to the region
// bounds, restricted to key timestamps in [minTS, maxTS), into per-series
// per-window partial aggregates evaluated inside the store — the region
// half of aggregation pushdown. The fold runs over a snapshot-pinned
// iterator with file-level key/time/Bloom pruning; see lsm.AggregateTime
// for windowing semantics.
func (r *Region) AggregateTime(lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) (lsm.AggResult, error) {
	lo, hi = r.clampRange(lo, hi)
	res, err := r.store.AggregateTime(lo, hi, minTS, maxTS, windowMS, funcs)
	if err != nil {
		return lsm.AggResult{}, fmt.Errorf("region %s: %w", r.info.Name, err)
	}
	return res, nil
}

// Health reports the backing store's liveness (stall, flush pressure).
func (r *Region) Health() lsm.Health { return r.store.Health() }

// Flush persists buffered writes to table files.
func (r *Region) Flush() error { return r.store.Flush() }

// Close shuts the region down, flushing first.
func (r *Region) Close() error { return r.store.Close() }

// Destroy closes the region and removes its files.
func (r *Region) Destroy() error { return r.store.Destroy() }
