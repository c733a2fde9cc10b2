package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"tpcxiot/internal/bloom"
)

// Reader provides point lookups and range scans over a finished table.
// Safe for concurrent use.
type Reader struct {
	mu     sync.RWMutex
	f      file
	size   int64
	closed bool

	index    *block
	colIndex *block // nil when the table has no column
	colBytes int64
	filter   bloom.Filter
	entries  uint64
	first    []byte // smallest key
	last     []byte // largest key

	minTS, maxTS int64 // time bounds from the footer
	hasTS        bool  // false when no key carried a timestamp

	// cache holds parsed data and column blocks, bounded LRU-style. Private
	// per reader unless a shared cache is supplied at open.
	cache *BlockCache
}

// file is what a Reader needs of the table file; *os.File in production, an
// in-memory image under the fuzzer.
type file interface {
	io.ReaderAt
	io.Closer
}

// Open opens the table at path and loads its index and Bloom filter, with
// a private block cache of the default size.
func Open(path string) (*Reader, error) {
	return OpenWithCache(path, nil)
}

// OpenWithCache opens the table using the given shared block cache; nil
// creates a private cache of the default size.
func OpenWithCache(path string, cache *BlockCache) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sstable: stat: %w", err)
	}
	r, err := openFile(f, st.Size(), cache)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// openFile loads the footer, indexes, filter and key bounds of a table image
// of the given size. The caller closes f when it fails.
func openFile(f file, size int64, cache *BlockCache) (*Reader, error) {
	if cache == nil {
		cache = NewBlockCache(0)
	}
	r := &Reader{f: f, size: size, cache: cache}
	if err := r.loadFooter(); err != nil {
		return nil, err
	}
	if err := r.loadBounds(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) loadFooter() error {
	if r.size < footerLen {
		return corruptf("file of %d bytes has no footer", r.size)
	}
	buf := make([]byte, footerLen)
	if _, err := r.f.ReadAt(buf, r.size-footerLen); err != nil {
		return fmt.Errorf("sstable: read footer: %w", err)
	}
	ft, err := decodeFooter(buf)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r.entries = ft.entries
	r.minTS, r.maxTS, r.hasTS = ft.minTS, ft.maxTS, ft.hasTS

	rawIndex, err := r.readBlockRaw(ft.index)
	if err != nil {
		return err
	}
	r.index, err = parseBlock(rawIndex)
	if err != nil {
		return err
	}

	if ft.bloom.length > 0 {
		rawBloom, err := r.readBlockRaw(ft.bloom)
		if err != nil {
			return err
		}
		r.filter = bloom.Filter(rawBloom)
	}

	if ft.column.length > 0 {
		rawCol, err := r.readBlockRaw(ft.column)
		if err != nil {
			return err
		}
		r.colIndex, err = parseBlock(rawCol)
		if err != nil {
			return err
		}
		r.colBytes = int64(ft.columnBytes)
	}
	return nil
}

func (r *Reader) loadBounds() error {
	it := r.NewIterator()
	it.SeekToFirst()
	if !it.Valid() {
		return corruptf("table reports %d entries but iterates empty", r.entries)
	}
	r.first = append([]byte(nil), it.Key()...)

	// Largest key: the index's last entry key equals the table's last key by
	// construction.
	last, err := r.index.lastKey()
	if err != nil {
		return err
	}
	r.last = last
	return it.Error()
}

// storedLen is how many file bytes the block behind h occupies, trailer
// included, or an error when the handle does not lie inside the file.
func (r *Reader) storedLen(h handle) (uint64, error) {
	// Compared without adding: offset+length of a damaged handle can wrap.
	if room := uint64(r.size) - trailerLen; h.length > room || h.offset > room-h.length {
		return 0, corruptf("block handle %d+%d beyond file size %d", h.offset, h.length, r.size)
	}
	return h.length + trailerLen, nil
}

// readBlockRaw reads and checksum-verifies a block; disk-read accounting
// records the bytes actually fetched, trailer included.
func (r *Reader) readBlockRaw(h handle) ([]byte, error) {
	n, err := r.storedLen(h)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, fmt.Errorf("sstable: read block: %w", err)
	}
	r.cache.recordDiskRead(int64(len(buf)))
	return r.decodeBlock(buf, h)
}

// decodeBlock checksum-verifies the stored bytes of the block behind h —
// payload then trailer, exactly storedLen long — and returns its payload, a
// sub-slice of buf. A nonzero type byte (a flate-compressed block's) is
// refused.
func (r *Reader) decodeBlock(buf []byte, h handle) ([]byte, error) {
	// Trailer: [type][crc32(payload+type)].
	body := buf[:h.length]
	want := binary.LittleEndian.Uint32(buf[h.length+1:])
	if crc32.Update(checksum(body), crcTable, buf[h.length:h.length+1]) != want {
		return nil, corruptf("checksum mismatch for block at %d", h.offset)
	}
	if t := buf[h.length]; t != 0 {
		return nil, corruptf("block encoding %d at %d", t, h.offset)
	}
	return body, nil
}

// dataBlock returns the parsed data or column block for a handle, consulting
// the cache.
func (r *Reader) dataBlock(h handle) (*block, error) {
	if b, ok := r.cache.get(r, h.offset); ok {
		return b, nil
	}
	raw, err := r.readBlockRaw(h)
	if err != nil {
		return nil, err
	}
	b, err := parseBlock(raw)
	if err != nil {
		return nil, err
	}
	r.cache.put(r, h.offset, b)
	return b, nil
}

// EntryCount returns the number of entries in the table.
func (r *Reader) EntryCount() uint64 { return r.entries }

// Size returns the table file's size in bytes.
func (r *Reader) Size() int64 { return r.size }

// FilterPresent reports whether the table carries a Bloom filter; when
// false, MayContain is vacuously true and cannot be used to classify
// lookups as filter hits or false positives.
func (r *Reader) FilterPresent() bool { return r.filter != nil }

// Bounds returns the smallest and largest keys. The slices are shared;
// callers must not modify them.
func (r *Reader) Bounds() (first, last []byte) { return r.first, r.last }

// TimeBounds returns the table's min/max key timestamps from the footer.
// ok is false for tables whose keys carried no extractable timestamp; such
// tables can never be pruned by time.
func (r *Reader) TimeBounds() (min, max int64, ok bool) {
	return r.minTS, r.maxTS, r.hasTS
}

// ColumnBytes is what the table's column adds to the file: its blocks, their
// trailers and its index. 0 means the table has no column — it was written
// without WriterOptions.Column, or held a value the projection rejected.
func (r *Reader) ColumnBytes() int64 { return r.colBytes }

// MayContain consults the Bloom filter. True is probabilistic; false is
// definite. Tables written without a filter always return true.
func (r *Reader) MayContain(key []byte) bool {
	if r.filter == nil {
		return true
	}
	return r.filter.MayContain(key)
}

// Get returns the value for key, or ErrNotFound.
func (r *Reader) Get(key []byte) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	if !r.MayContain(key) {
		return nil, ErrNotFound
	}
	it := r.NewIterator()
	it.Seek(key)
	if err := it.Error(); err != nil {
		return nil, err
	}
	if !it.Valid() || !bytes.Equal(it.Key(), key) {
		return nil, ErrNotFound
	}
	return append([]byte(nil), it.Value()...), nil
}

// Close releases the underlying file. Iterators must not be used afterwards.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.cache.evictOwner(r)
	return r.f.Close()
}

// runSize is how much of the file one sequential read fetches: sixteen
// default-sized blocks for one pread into one buffer.
const runSize = 64 << 10

// runGap is how far past the end of the block just consumed the next may
// start and still be adjacent: the blocks of one sequence lie back to back
// but for a block of the other sequence emitted between them. A column
// walk, its blocks dozens of data blocks apart, never is, and keeps reading
// block by block through the cache.
const runGap = runSize / 8

// runPool holds run buffers of runSize bytes between iterators: a query
// opens an iterator per table it reads, and each would otherwise allocate
// (and zero) a buffer of its own for its first run.
var runPool = sync.Pool{New: func() any { return new([runSize]byte) }}

// Iterator walks one of a table's block sequences — the data blocks or the
// column — in ascending key order.
//
// Seek and SeekToFirst load their block through the cache. A walk that then
// steps onto an adjacent block the cache does not hold reads a run: runSize
// bytes from that block's offset, in one ReadAt, into a buffer the iterator
// takes from a pool at its first run and keeps until Close. The blocks lying
// whole inside it are verified and parsed in place and never enter the
// cache, so a long scan or a compaction input evicts nothing. Values parsed
// in place alias the buffer: a caller keeps no value past Close.
type Iterator struct {
	r       *Reader
	indexIt *blockIter
	dataIt  *blockIter // &cur while positioned inside a block
	err     error

	cur    blockIter      // over the current block; its key buffer is reused
	end    uint64         // file offset just past the current block
	run    []byte         // file bytes [runOff, runOff+len(run))
	runBuf *[runSize]byte // run's backing array, from runPool; nil before the first run
	runOff uint64
	inRun  block // the current block, when parsed out of run
}

// NewIterator returns an unpositioned iterator; call Seek or SeekToFirst.
func (r *Reader) NewIterator() *Iterator {
	return &Iterator{r: r, indexIt: r.index.iter()}
}

// NewColumnIterator returns an unpositioned iterator over the table's
// column: the same keys as NewIterator in the same order, each with
// WriterOptions.Column's projection of its value, read from the column's
// own blocks through the same cache. It returns nil when the table has no
// column.
func (r *Reader) NewColumnIterator() *Iterator {
	if r.colIndex == nil {
		return nil
	}
	return &Iterator{r: r, indexIt: r.colIndex.iter()}
}

// SeekToFirst positions at the table's first entry.
func (it *Iterator) SeekToFirst() {
	it.err = nil
	it.indexIt.seekToFirst()
	it.loadDataBlock(false)
	if it.dataIt != nil {
		it.dataIt.seekToFirst()
	}
	it.skipForward()
}

// Seek positions at the first entry with key >= target.
func (it *Iterator) Seek(target []byte) {
	it.err = nil
	// Index entries hold the LAST key of each block, so the first index
	// entry with key >= target names the block that may contain target.
	it.indexIt.seek(target)
	it.loadDataBlock(false)
	if it.dataIt != nil {
		it.dataIt.seek(target)
	}
	it.skipForward()
}

// Next advances one entry.
func (it *Iterator) Next() {
	if it.dataIt == nil || it.err != nil {
		return
	}
	it.dataIt.next()
	it.skipForward()
}

// skipForward advances to the next non-empty data block when the current
// block is exhausted.
func (it *Iterator) skipForward() {
	for it.err == nil && (it.dataIt == nil || !it.dataIt.valid) {
		if it.dataIt != nil && it.dataIt.err != nil {
			it.err = it.dataIt.err
			return
		}
		it.indexIt.next()
		if it.indexIt.err != nil {
			it.err = it.indexIt.err
			return
		}
		if !it.indexIt.valid {
			it.dataIt = nil
			return
		}
		it.loadDataBlock(true)
		if it.dataIt != nil {
			it.dataIt.seekToFirst()
		}
	}
}

// loadDataBlock makes the block referenced by the current index entry the
// current one. sequential says the walk stepped off the previous block,
// which is when a run may serve this one.
func (it *Iterator) loadDataBlock(sequential bool) {
	it.dataIt = nil
	if !it.indexIt.valid {
		return
	}
	if len(it.indexIt.value) != 16 {
		it.err = corruptf("index value of %d bytes", len(it.indexIt.value))
		return
	}
	h := decodeHandle(it.indexIt.value)
	var b *block
	stored, err := it.r.storedLen(h)
	if err == nil {
		b, err = it.block(h, stored, sequential)
	}
	if err != nil {
		it.err = err
		return
	}
	it.end = h.offset + stored
	it.cur = blockIter{b: b, key: it.cur.key[:0]}
	it.dataIt = &it.cur
}

// block finds the block behind h: in the run already read, in the cache, in
// a new run when it is adjacent, else by a read of its own.
func (it *Iterator) block(h handle, stored uint64, sequential bool) (*block, error) {
	r := it.r
	if !sequential {
		return r.dataBlock(h)
	}
	// at wraps far past len(run) when the block starts before the run.
	at, have := h.offset-it.runOff, uint64(len(it.run))
	if at > have || have-at < stored {
		if h.offset < it.end || h.offset-it.end > runGap || stored > runSize {
			return r.dataBlock(h)
		}
		if b, ok := r.cache.get(r, h.offset); ok {
			return b, nil
		}
		if it.runBuf == nil {
			it.runBuf = runPool.Get().(*[runSize]byte)
		}
		it.run = it.runBuf[:min(runSize, uint64(r.size)-h.offset)]
		if _, err := r.f.ReadAt(it.run, int64(h.offset)); err != nil {
			it.run = it.run[:0]
			return nil, fmt.Errorf("sstable: read run: %w", err)
		}
		r.cache.recordRun(int64(len(it.run)))
		it.runOff, at = h.offset, 0
	}
	raw, err := r.decodeBlock(it.run[at:at+stored], h)
	if err != nil {
		return nil, err
	}
	return &it.inRun, it.inRun.parse(raw)
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool {
	return it.err == nil && it.dataIt != nil && it.dataIt.valid
}

// Key returns the current key; valid until the next positioning call.
func (it *Iterator) Key() []byte { return it.dataIt.key }

// Value returns the current value; valid until the next positioning call.
func (it *Iterator) Value() []byte { return it.dataIt.value }

// Error returns the first corruption or I/O error encountered.
func (it *Iterator) Error() error { return it.err }

// Close ends the walk and hands the run buffer back to the pool; the
// iterator is then exhausted, and no value it returned may be read. Safe to
// call more than once, and on an iterator that never read a run.
func (it *Iterator) Close() {
	it.dataIt = nil
	it.run, it.inRun = nil, block{}
	if it.runBuf != nil {
		runPool.Put(it.runBuf)
		it.runBuf = nil
	}
}
