package lsm

import (
	"bytes"

	"tpcxiot/internal/memtable"
)

// iterator is the common shape of memtable and sstable iterators.
type iterator interface {
	Valid() bool
	Key() []byte
	Value() []byte
	Next()
}

// errIterator is satisfied by sources that can fail mid-iteration.
type errIterator interface {
	Error() error
}

// memIter adapts a memtable iterator (which cannot fail) to the interface.
type memIter struct {
	*memtable.Iterator
}

// mergeIterator performs an n-way sorted merge over already-positioned
// iterators. Sources are priority-ordered: when several sources hold the
// same key, the one with the LOWEST index wins (callers pass newest data
// first), and the shadowed versions are skipped. This yields exactly the
// newest visible version of every key.
//
// The live sources sit in a binary min-heap ordered by (current key, source
// index), so one step costs O(log n) key comparisons — a whole-window merge
// has dozens of inputs, a pruned read two or three.
type mergeIterator struct {
	sources []iterator
	heap    []int // indices into sources; heap[0] is the winner
	err     error
}

// newMergeIterator merges sources that have already been positioned (Seek
// or SeekToFirst). Pass newer sources before older ones.
func newMergeIterator(sources []iterator) *mergeIterator {
	m := &mergeIterator{sources: sources, heap: make([]int, 0, len(sources))}
	for i := range sources {
		if m.live(i) {
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	m.skipShadowed()
	return m
}

// live reports whether source i rests on an entry, recording the error of a
// source that stopped because it failed.
func (m *mergeIterator) live(i int) bool {
	it := m.sources[i]
	if it.Valid() {
		return true
	}
	if e, ok := it.(errIterator); ok && m.err == nil {
		m.err = e.Error()
	}
	return false
}

// less orders heap slots by key, then by source index (newest first).
func (m *mergeIterator) less(a, b int) bool {
	sa, sb := m.heap[a], m.heap[b]
	if c := bytes.Compare(m.sources[sa].Key(), m.sources[sb].Key()); c != 0 {
		return c < 0
	}
	return sa < sb
}

func (m *mergeIterator) siftDown(i int) {
	n := len(m.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && m.less(c+1, c) {
			c++
		}
		if !m.less(c, i) {
			return
		}
		m.heap[i], m.heap[c] = m.heap[c], m.heap[i]
		i = c
	}
}

// advance steps the source in heap slot i and restores the heap: the source
// only moves forward, so it sinks, or leaves the heap when exhausted.
func (m *mergeIterator) advance(i int) {
	src := m.heap[i]
	m.sources[src].Next()
	if !m.live(src) {
		last := len(m.heap) - 1
		m.heap[i] = m.heap[last]
		m.heap = m.heap[:last]
		if i == last {
			return
		}
	}
	m.siftDown(i)
}

// skipShadowed advances every older source resting on the winner's key.
// Equal keys are adjacent to the root, so checking the root's smaller child
// until it differs finds them all.
func (m *mergeIterator) skipShadowed() {
	for len(m.heap) > 1 && m.err == nil {
		c := 1
		if len(m.heap) > 2 && m.less(2, 1) {
			c = 2
		}
		if !bytes.Equal(m.sources[m.heap[c]].Key(), m.sources[m.heap[0]].Key()) {
			return
		}
		m.advance(c)
	}
}

// Valid reports whether the merge is positioned at an entry.
func (m *mergeIterator) Valid() bool { return m.err == nil && len(m.heap) > 0 }

// Key returns the current key.
func (m *mergeIterator) Key() []byte { return m.sources[m.heap[0]].Key() }

// Value returns the current (newest) value.
func (m *mergeIterator) Value() []byte { return m.sources[m.heap[0]].Value() }

// Next advances past the current key.
func (m *mergeIterator) Next() {
	if !m.Valid() {
		return
	}
	m.advance(0)
	m.skipShadowed()
}

// exhaust ends the merge without an error (the caller hit its upper bound).
func (m *mergeIterator) exhaust() { m.heap = m.heap[:0] }

// Error returns the first source error encountered.
func (m *mergeIterator) Error() error { return m.err }
