// Package memtable implements the in-memory write buffer of the storage
// engine: a sorted skiplist mapping byte-slice keys to values.
//
// The design mirrors the memstore of an HBase region server (and the
// memtable of LevelDB-family engines): writes are serialised by a mutex and
// publish new nodes with atomic stores, so readers — point gets and range
// scans — traverse the list without taking any lock. Nodes are never
// unlinked: a later Put of a key replaces its value, and the whole table is
// discarded after a flush.
package memtable

import (
	"bytes"
	"sync"
	"sync/atomic"

	"tpcxiot/internal/gen"
)

const maxHeight = 18 // supports hundreds of millions of entries at p=1/4

// Memtable is a sorted in-memory key-value buffer. The zero value is not
// usable; call New.
type Memtable struct {
	head *node

	mu     sync.Mutex // serialises writers
	rng    *gen.RNG   // guarded by mu; tower height source
	height atomic.Int32

	size    atomic.Int64 // approximate bytes of keys+values
	entries atomic.Int64
}

type node struct {
	key   []byte
	value atomic.Pointer[[]byte]
	tower [maxHeight]atomic.Pointer[node]
}

// New returns an empty memtable. The seed makes tower heights (and thus the
// exact structure) deterministic for tests; any value is fine in production.
func New(seed uint64) *Memtable {
	m := &Memtable{head: &node{}, rng: gen.NewRNG(seed)}
	m.height.Store(1)
	return m
}

// Put inserts or overwrites key with value. The key and value slices are
// copied on first insert; overwrites copy only the value. Safe for
// concurrent use with readers and other writers.
func (m *Memtable) Put(key, value []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var prev [maxHeight]*node
	n := m.findGE(key, &prev)
	if n != nil && bytes.Equal(n.key, key) {
		old := n.value.Load()
		v := append([]byte(nil), value...)
		n.value.Store(&v)
		m.size.Add(int64(len(value) - len(*old)))
		return
	}

	h := m.randomHeight()
	if int32(h) > m.height.Load() {
		for i := m.height.Load(); i < int32(h); i++ {
			prev[i] = m.head
		}
		m.height.Store(int32(h))
	}

	nn := &node{key: append([]byte(nil), key...)}
	v := append([]byte(nil), value...)
	nn.value.Store(&v)
	for i := 0; i < h; i++ {
		nn.tower[i].Store(prev[i].tower[i].Load())
		// Publish bottom-up so a reader that sees the node at level i can
		// always reach it at level 0.
		prev[i].tower[i].Store(nn)
	}
	m.size.Add(int64(len(key) + len(value)))
	m.entries.Add(1)
}

// Get returns a copy of the value stored for key, or ok=false if absent.
func (m *Memtable) Get(key []byte) (value []byte, ok bool) {
	n := m.findGE(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false
	}
	v := n.value.Load()
	return append([]byte(nil), *v...), true
}

// Size returns the approximate memory footprint in bytes of stored keys and
// values (excluding node overhead).
func (m *Memtable) Size() int64 { return m.size.Load() }

// Len returns the number of distinct keys.
func (m *Memtable) Len() int64 { return m.entries.Load() }

// findGE returns the first node with key >= target, filling prev (if
// non-nil) with the rightmost node before target at every level.
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
	n *node
}

// NewIterator returns an iterator positioned before the first entry; call
// Seek or Next to position it.
func (m *Memtable) NewIterator() *Iterator {
	return &Iterator{m: m}
}

// Seek positions the iterator at the first entry with key >= target.
func (it *Iterator) Seek(target []byte) {
	it.n = it.m.findGE(target, nil)
}

// SeekToFirst positions the iterator at the smallest key.
func (it *Iterator) SeekToFirst() {
	it.n = it.m.head.tower[0].Load()
}

// Next advances to the following entry. Valid must be consulted afterwards.
func (it *Iterator) Next() {
	if it.n != nil {
		it.n = it.n.tower[0].Load()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current key. The slice must not be modified.
func (it *Iterator) Key() []byte { return it.n.key }

// Value returns the current value. The slice must not be modified.
func (it *Iterator) Value() []byte { return *it.n.value.Load() }
