package lsm

import (
	"bytes"
	"fmt"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/sstable"
)

// Iter is a long-lived streaming iterator over a pinned snapshot of the
// store: the memtable views and the table set captured at NewIterator time.
// The snapshot is held by reference — each table handle's refcount is
// incremented for the iterator's lifetime, and memtable nodes are never
// unlinked — so the iterator survives concurrent flushes and compactions
// without rescanning and without observing their effects: a table retired
// by compaction stays readable until Close, and a table installed after the
// snapshot is never consulted (its contents are the pinned memtable's, so
// consulting both would duplicate rows).
//
// Iterators position only on the newest version of each key and stop at the
// exclusive upper bound fixed at open. Key and Value return
// slices owned by the snapshot, valid until the next call to Next or Close;
// callers that retain rows must copy them. An Iter is not safe for
// concurrent use, but any number of iterators may run concurrently with
// each other and with writers.
type Iter struct {
	store  *Store
	held   []*tableHandle
	merged *mergeIterator
	hi     []byte // exclusive upper bound; nil = end of keyspace
	closed bool

	// Time filter, set by AggregateTime: only entries whose key timestamp
	// falls in [tsLo, tsHi) are yielded (entries without an extractable
	// timestamp never match a time-range query).
	tsLo, tsHi int64
	tsFilter   bool

	// bytesRead accumulates the user bytes this iterator yielded — key plus
	// row, or key plus the 8-byte reading where a column served the entry —
	// counted locally and flushed to the store's read ledger once at Close so
	// long scans cost no per-row atomics.
	bytesRead int64
}

// NewIterator opens a streaming iterator over the entries with
// lo <= key < hi, in ascending key order. A nil hi scans to the end of the
// keyspace. The returned iterator is positioned at the first entry (check
// Valid); it observes a snapshot pinned at this call and MUST be closed to
// release the pinned table files.
//
// Tables whose footer key bounds cannot intersect [lo, hi) are pruned from
// the snapshot — never pinned, never read.
func (s *Store) NewIterator(lo, hi []byte) (*Iter, error) {
	return s.newIter(lo, hi, 0, 0, false, false)
}

// newIter opens the snapshot. With column set, every table that has a
// reading column contributes its column iterator in place of its data-block
// iterator: the same keys in the same order, so shadowing merges exactly
// as before, but an entry's stored value is then
// [tagReading][float64 bits] and Value is not the row. Only the aggregate
// fold, which reads the stored form, sets it.
func (s *Store) newIter(lo, hi []byte, tsLo, tsHi int64, tsFilter, column bool) (*Iter, error) {
	if hi != nil && bytes.Compare(lo, hi) > 0 {
		return nil, ErrBadRange
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	sources := make([]iterator, 0, 2+len(s.tables))
	ait := s.active.NewIterator()
	ait.Seek(lo)
	sources = append(sources, memIter{ait})
	if s.imm != nil {
		iit := s.imm.NewIterator()
		iit.Seek(lo)
		sources = append(sources, memIter{iit})
	}
	held := make([]*tableHandle, 0, len(s.tables))
	var keyPruned, timePruned int64
	for _, t := range s.tables {
		// Key-range pruning against the footer bounds. lo > last rules the
		// table out below the range; first >= hi rules it out above.
		if bytes.Compare(t.lastKey, lo) < 0 ||
			(hi != nil && bytes.Compare(t.firstKey, hi) >= 0) {
			keyPruned++
			continue
		}
		// Time-range pruning: sound only when the table has bounds (they
		// then cover every timestamped key, and untimestamped keys match no
		// time range anyway).
		if tsFilter && t.hasTS && (t.maxTS < tsLo || t.minTS >= tsHi) {
			timePruned++
			continue
		}
		t.acquire()
		held = append(held, t)
		var it *sstable.Iterator
		if column {
			it = t.reader.NewColumnIterator()
		}
		if it == nil {
			it = t.reader.NewIterator()
		}
		it.Seek(lo)
		sources = append(sources, it)
	}
	s.mu.RUnlock()
	s.scans.Inc()
	if keyPruned > 0 {
		s.pruneKey.Add(keyPruned)
	}
	if timePruned > 0 {
		s.pruneTime.Add(timePruned)
	}

	// The bound is kept past this call, so it is copied: a caller's slice
	// (a server's request frame) may be reused for the next request.
	it := &Iter{
		store: s, held: held, merged: newMergeIterator(sources), hi: bytes.Clone(hi),
		tsLo: tsLo, tsHi: tsHi, tsFilter: tsFilter,
	}
	it.skip()
	it.account()
	return it, nil
}

// account charges the entry the iterator currently rests on to the local
// read ledger. Called once per positioning, never per Key/Value access.
func (it *Iter) account() {
	if it.merged.Valid() {
		// len(Value())-1 strips the tag byte callers never see.
		it.bytesRead += int64(len(it.merged.Key()) + len(it.merged.Value()) - 1)
	}
}

// skip advances the merge past entries outside the time filter and clamps
// at the upper bound, so the iterator rests on an in-range entry or
// exhausts. An entry without a tag byte, or with a tag no row carries,
// fails the iterator with ErrCorrupt before Value could slice it.
func (it *Iter) skip() {
	for it.merged.Valid() {
		key, v := it.merged.Key(), it.merged.Value()
		if it.hi != nil && bytes.Compare(key, it.hi) >= 0 {
			it.merged.exhaust() // past the bound
			return
		}
		if len(v) == 0 || (v[0] != tagValue && v[0] != tagReading) {
			it.merged.err = fmt.Errorf("%w: stored value %x under key %q", ErrCorrupt, v, key)
			return
		}
		if !it.tsFilter {
			return
		}
		if ts, ok := kvp.TimestampOf(key); ok && ts >= it.tsLo && ts < it.tsHi {
			return
		}
		it.merged.Next()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return !it.closed && it.merged.Valid() }

// Key returns the current key; valid until the next Next or Close.
func (it *Iter) Key() []byte { return it.merged.Key() }

// Value returns the current value (tag stripped); valid until the next Next
// or Close.
func (it *Iter) Value() []byte { return it.merged.Value()[1:] }

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.Valid() {
		return
	}
	it.merged.Next()
	it.skip()
	it.account()
}

// Error returns the first source error encountered.
func (it *Iter) Error() error { return it.merged.Error() }

// Close releases the pinned snapshot. Safe to call more than once.
func (it *Iter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	if it.bytesRead > 0 {
		it.store.logicalReadBytes.Add(it.bytesRead)
		it.bytesRead = 0
	}
	for _, t := range it.held {
		t.release()
	}
	it.held = nil
	return it.merged.Error()
}
