// Package memtable implements the in-memory write buffer of the storage
// engine: a sorted map from byte-slice keys to values, laid out for time
// series.
//
// The design mirrors the memstore of an HBase region server (and the
// memtable of LevelDB-family engines): writes are serialised by a mutex and
// publish new entries with atomic stores, so readers — point gets and range
// scans — run without taking any lock. Entries are never removed: a later
// Put of a key replaces its value, and the whole table is discarded after a
// flush.
//
// TPCx-IoT keys are substation|sensor|timestamp (package kvp), and each
// sensor's timestamps only increase, so nearly every insert is the next
// reading of its series. The table therefore keeps, as IoTDB's memtable
// does, one append-only run per series:
//
//   - The series index. Put splits a key with kvp.SeriesOf. Writers find
//     the series through a map and append a new one to a list in creation
//     order; readers binary-search that list sorted by prefix, which the
//     first reader after a new series appeared sorts and shares. New series
//     are rare (a few hundred per table, nearly all in its first rows), and
//     sorting on read keeps a table of n series from copying the list n
//     times. kvp is a leaf package, and splitting here keeps New, Put, Get
//     and NewIterator the table's whole API.
//   - The run. A key newer than its series' newest is appended: one map
//     lookup and no search. A run's entries are published by an atomic
//     length, so readers see a prefix of it without locking. Because series
//     prefixes end in their second separator, no prefix extends another, and
//     the runs laid end to end in series order are one sorted sequence.
//   - The fallback. A key at or before its series' newest is looked up in
//     the run by binary search and, if present, overwritten in place. Only
//     a new key that arrives out of order, or a key SeriesOf cannot split,
//     goes to the fallback: a skiplist. Run keys and fallback keys are then
//     disjoint, so a scan is a two-way merge without shadowing, and with an
//     empty fallback it compares no keys at all.
//
// Put keeps the key and value it is given: an entry's key and value are
// capacity-capped slices of Put's arguments, and the caller never writes
// those bytes again. The store hands Put slices of a batch's buffer, the
// WAL record it logged, so a row is not copied between the batch and the
// table, and replicas that apply one batch share its bytes. Entries and
// skiplist nodes are carved from slabs, and a first insert stores its
// value in the entry itself, so a new key costs no allocation of its own;
// only an overwrite allocates, for the new value's holder. Nothing is
// reused or freed: a key or value slice returned by an iterator stays
// valid and unchanged for as long as the caller holds it, later Puts and
// overwrites of the same key included, and the memory goes when the table,
// every slice into it and every batch it keeps bytes of are unreachable.
// Returned slices are capacity-capped, so a caller's append copies instead
// of writing into the neighbouring entry.
package memtable

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tpcxiot/internal/gen"
	"tpcxiot/internal/kvp"
)

const (
	maxHeight = 18  // supports hundreds of millions of entries at p=1/4
	slabNodes = 256 // fallback nodes allocated at a time
	slabRuns  = 256 // run entries allocated at a time
	minGrow   = 16  // first capacity of an appendOnly
)

// Memtable is a sorted in-memory key-value buffer. The zero value is not
// usable; call New.
type Memtable struct {
	series appendOnly[*series]       // every series, in creation order
	sorted atomic.Pointer[[]*series] // a prefix of series, in key order; see bySeries

	mu      sync.Mutex         // serialises writers
	index   map[string]*series // guarded by mu; series by prefix
	entries []entry            // guarded by mu; the unused rest of the current entry slab

	// The fallback skiplist.
	head   *node
	rng    *gen.RNG // guarded by mu; tower height source
	nodes  []node   // guarded by mu; the unused rest of the current node slab
	height atomic.Int32

	size  atomic.Int64 // approximate bytes of keys+values
	count atomic.Int64
}

// entry is one key and its value, in a run or in a fallback node.
type entry struct {
	key   []byte
	value atomic.Pointer[[]byte] // &first until the key is overwritten
	first []byte                 // the value of the key's first insert
}

type node struct {
	entry
	tower [maxHeight]atomic.Pointer[node]
}

// series is one kvp series: its entries in timestamp order.
type series struct {
	prefix []byte             // substation|0x00|sensor|0x00
	run    appendOnly[*entry] // the entries, oldest first
	tail   uint64             // guarded by Memtable.mu; the newest entry's timestamp bits
}

// appendOnly is a slice that writers, holding Memtable.mu, append to while
// readers take views of it without locking. The zero value is empty.
type appendOnly[T any] struct {
	w []T // guarded by Memtable.mu; the writer's view

	// What readers see: the first n elements of the backing array, which the
	// writer replaces (holding the same elements) when w outgrows it.
	array atomic.Pointer[[]T]
	n     atomic.Int64
}

// append publishes v after the current elements. Called with Memtable.mu
// held.
func (a *appendOnly[T]) append(v T) {
	if len(a.w) == cap(a.w) {
		grown := make([]T, len(a.w), max(minGrow, 2*cap(a.w)))
		copy(grown, a.w)
		a.w = grown
		whole := grown[:cap(grown)]
		a.array.Store(&whole)
	}
	a.w = append(a.w, v)
	a.n.Store(int64(len(a.w)))
}

// view returns the published elements. n is loaded first: an array is
// published before n grows past its predecessor's capacity.
func (a *appendOnly[T]) view() []T {
	n := a.n.Load()
	if n == 0 {
		return nil
	}
	return (*a.array.Load())[:n]
}

// bySeries returns every published series in key order. The first caller
// after a new series appeared sorts them; later callers share that order
// until the next new series. Sorted lists of equal length hold the same
// series: the first that many created.
func (m *Memtable) bySeries() []*series {
	all := m.series.view()
	if list := m.sorted.Load(); list != nil && len(*list) == len(all) {
		return *list
	}
	list := slices.Clone(all)
	slices.SortFunc(list, func(a, b *series) int { return bytes.Compare(a.prefix, b.prefix) })
	m.sorted.Store(&list)
	return list
}

// seriesAt returns the index of the first series in list whose prefix is at
// or after target.
func seriesAt(list []*series, target []byte) int {
	return sort.Search(len(list), func(i int) bool { return bytes.Compare(list[i].prefix, target) >= 0 })
}

// entryAt returns the index of the first entry in run whose key is at or
// after target.
func entryAt(run []*entry, target []byte) int {
	return sort.Search(len(run), func(i int) bool { return bytes.Compare(run[i].key, target) >= 0 })
}

// tsBits is the timestamp field of a kvp-shaped key, whose order is the
// key's order within its series.
func tsBits(key []byte) uint64 { return binary.BigEndian.Uint64(key[len(key)-8:]) }

// New returns an empty memtable. The seed makes fallback tower heights (and
// thus the exact structure) deterministic for tests; any value is fine in
// production.
func New(seed uint64) *Memtable {
	m := &Memtable{head: &node{}, rng: gen.NewRNG(seed), index: map[string]*series{}}
	m.height.Store(1)
	return m
}

// Put inserts or overwrites key with value. The table keeps both slices, not
// copies: the caller must never write their bytes again. Safe for
// concurrent use with readers and other writers.
func (m *Memtable) Put(key, value []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()

	prefix, ok := kvp.SeriesOf(key)
	if !ok {
		m.putFallback(key, value)
		return
	}
	s := m.index[string(prefix)]
	if s == nil {
		s = m.newSeries(prefix)
	}
	if ts := tsBits(key); len(s.run.w) == 0 || ts > s.tail {
		s.tail = ts
		s.run.append(m.newEntry(key, value))
		return
	}
	run := s.run.w
	if i := entryAt(run, key); i < len(run) && bytes.Equal(run[i].key, key) {
		m.overwrite(run[i], value)
		return
	}
	m.putFallback(key, value)
}

// newSeries indexes and publishes a series. Called with mu held.
func (m *Memtable) newSeries(prefix []byte) *series {
	s := &series{prefix: prefix[:len(prefix):len(prefix)]}
	m.index[string(prefix)] = s
	m.series.append(s)
	return s
}

// newEntry stores key and value in a fresh entry and counts it. Called
// with mu held.
func (m *Memtable) newEntry(key, value []byte) *entry {
	if len(m.entries) == 0 {
		m.entries = make([]entry, slabRuns)
	}
	e := &m.entries[0]
	m.entries = m.entries[1:]
	m.fill(e, key, value)
	return e
}

// fill stores key and value, capacity-capped, in e, a zero entry, and counts
// it. Called with mu held.
func (m *Memtable) fill(e *entry, key, value []byte) {
	e.key, e.first = key[:len(key):len(key)], value[:len(value):len(value)]
	e.value.Store(&e.first)
	m.size.Add(int64(len(key) + len(value)))
	m.count.Add(1)
}

// overwrite replaces e's value. Called with mu held.
func (m *Memtable) overwrite(e *entry, value []byte) {
	old := e.value.Load()
	v := value[:len(value):len(value)]
	e.value.Store(&v)
	m.size.Add(int64(len(value) - len(*old)))
}

// putFallback inserts or overwrites key in the skiplist. Called with mu
// held.
func (m *Memtable) putFallback(key, value []byte) {
	var prev [maxHeight]*node
	n := m.findGE(key, &prev)
	if n != nil && bytes.Equal(n.key, key) {
		m.overwrite(&n.entry, value)
		return
	}

	h := m.randomHeight()
	if int32(h) > m.height.Load() {
		for i := m.height.Load(); i < int32(h); i++ {
			prev[i] = m.head
		}
		m.height.Store(int32(h))
	}

	nn := m.newNode()
	m.fill(&nn.entry, key, value)
	for i := 0; i < h; i++ {
		nn.tower[i].Store(prev[i].tower[i].Load())
		// Publish bottom-up so a reader that sees the node at level i can
		// always reach it at level 0.
		prev[i].tower[i].Store(nn)
	}
}

// newNode takes a zero node from the current slab. Called with mu held.
func (m *Memtable) newNode() *node {
	if len(m.nodes) == 0 {
		m.nodes = make([]node, slabNodes)
	}
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	return n
}

// Get returns a copy of the value stored for key, or ok=false if absent.
func (m *Memtable) Get(key []byte) (value []byte, ok bool) {
	e := m.find(key)
	if e == nil {
		return nil, false
	}
	return append([]byte(nil), *e.value.Load()...), true
}

// find returns key's entry, in its series' run or in the fallback, or nil.
func (m *Memtable) find(key []byte) *entry {
	if prefix, ok := kvp.SeriesOf(key); ok {
		list := m.bySeries()
		if i := seriesAt(list, prefix); i < len(list) && bytes.Equal(list[i].prefix, prefix) {
			run := list[i].run.view()
			if j := entryAt(run, key); j < len(run) && bytes.Equal(run[j].key, key) {
				return run[j]
			}
		}
	}
	if n := m.findGE(key, nil); n != nil && bytes.Equal(n.key, key) {
		return &n.entry
	}
	return nil
}

// Size returns the approximate memory footprint in bytes of stored keys and
// values (excluding entry overhead).
func (m *Memtable) Size() int64 { return m.size.Load() }

// Len returns the number of distinct keys.
func (m *Memtable) Len() int64 { return m.count.Load() }

// findGE returns the first fallback node with key >= target, filling prev
// (if non-nil) with the rightmost node before target at every level.
func (m *Memtable) findGE(target []byte, prev *[maxHeight]*node) *node {
	x := m.head
	for level := int(m.height.Load()) - 1; level >= 0; level-- {
		for {
			next := x.tower[level].Load()
			if next == nil || bytes.Compare(next.key, target) >= 0 {
				break
			}
			x = next
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.tower[0].Load()
}

func (m *Memtable) randomHeight() int {
	h := 1
	// p = 1/4 per extra level, LevelDB-style.
	for h < maxHeight && m.rng.Uint64()%4 == 0 {
		h++
	}
	return h
}

// Iterator walks entries in ascending key order. Iterators observe entries
// inserted concurrently with iteration (same semantics as scanning an HBase
// memstore); for a frozen view, stop writing to the table first.
type Iterator struct {
	m *Memtable

	// The run cursor: entry i of run, the view of list[si].
	list []*series
	si   int
	run  []*entry
	i    int

	fb  *node  // the fallback cursor
	cur *entry // the smaller of the two cursors; nil when both are done
}

// NewIterator returns an iterator positioned before the first entry; call
// Seek or Next to position it.
func (m *Memtable) NewIterator() *Iterator {
	return &Iterator{m: m}
}

// Seek positions the iterator at the first entry with key >= target.
func (it *Iterator) Seek(target []byte) {
	it.list = it.m.bySeries()
	// Series before si have prefixes below target; only the last of them can
	// hold keys >= target, and only if its prefix starts target.
	it.si = seriesAt(it.list, target)
	it.run, it.i = nil, 0
	if it.si > 0 && bytes.HasPrefix(target, it.list[it.si-1].prefix) {
		run := it.list[it.si-1].run.view()
		if i := entryAt(run, target); i < len(run) {
			it.si--
			it.run, it.i = run, i
		}
	}
	if it.run == nil {
		it.openSeries()
	}
	it.fb = it.m.findGE(target, nil)
	it.pick()
}

// SeekToFirst positions the iterator at the smallest key.
func (it *Iterator) SeekToFirst() { it.Seek(nil) }

// Next advances to the following entry. Valid must be consulted afterwards.
func (it *Iterator) Next() {
	switch {
	case it.cur == nil:
		return
	case it.fb != nil && it.cur == &it.fb.entry:
		it.fb = it.fb.tower[0].Load()
	default:
		it.i++
		if it.i == len(it.run) {
			it.nextRun()
		}
	}
	it.pick()
}

// openSeries points the run cursor at the first entry of list[si] or of a
// later series; it.run is empty when no series is left.
func (it *Iterator) openSeries() {
	for it.run = nil; it.si < len(it.list); it.si++ {
		if it.run = it.list[it.si].run.view(); len(it.run) > 0 {
			return
		}
	}
}

// nextRun moves on from the end of the current view: to entries appended to
// the series since, or else to the next series, counting those created since.
func (it *Iterator) nextRun() {
	s := it.list[it.si]
	if run := s.run.view(); len(run) > it.i {
		it.run = run
		return
	}
	if list := it.m.bySeries(); len(list) != len(it.list) {
		it.list = list
		it.si = seriesAt(list, s.prefix)
	}
	it.si++
	it.i = 0
	it.openSeries()
}

// pick sets cur to the smaller of the run and fallback cursors. The two hold
// disjoint keys.
func (it *Iterator) pick() {
	var r *entry
	if it.i < len(it.run) {
		r = it.run[it.i]
	}
	switch {
	case it.fb == nil:
		it.cur = r
	case r == nil || bytes.Compare(it.fb.key, r.key) < 0:
		it.cur = &it.fb.entry
	default:
		it.cur = r
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.cur != nil }

// Key returns the current key. The slice must not be modified; it stays
// valid after the iterator moves.
func (it *Iterator) Key() []byte { return it.cur.key }

// Value returns the current value. The slice must not be modified; it stays
// valid, and keeps these bytes, after the iterator moves or the key is
// overwritten.
func (it *Iterator) Value() []byte { return *it.cur.value.Load() }
