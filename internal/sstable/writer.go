package sstable

import (
	"bufio"
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"os"

	"tpcxiot/internal/bloom"
)

// WriterOptions configures table construction.
type WriterOptions struct {
	// BlockSize is the uncompressed data-block target in bytes.
	// Defaults to 4 KiB.
	BlockSize int
	// BloomBitsPerKey sizes the table's Bloom filter; 0 selects the
	// package default, negative disables the filter.
	BloomBitsPerKey int
	// Compression selects the data-block encoding. Index and filter blocks
	// stay raw regardless, and a data block that does not shrink is stored
	// raw with its type byte saying so.
	Compression Compression
	// TimestampOf, when non-nil, extracts a timestamp from each added key;
	// the table's min/max time bounds are recorded in the footer and let
	// time-range reads prune the whole file. Keys for which it returns
	// false contribute no bounds.
	TimestampOf func(key []byte) (int64, bool)
	// Column, when non-nil, gives the table a column: for every added entry
	// it appends to dst the projection of value that the column stores under
	// the same key, and returns the extended slice. Reporting false for a
	// value it cannot project drops the column from the whole table — readers
	// then fall back to the data blocks and meet the bad value there.
	Column func(dst, value []byte) ([]byte, bool)
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 4 << 10
	}
	return o
}

// Writer builds a table from keys added in strictly ascending order.
type Writer struct {
	w    *bufio.Writer
	file *os.File
	opts WriterOptions

	offset  uint64
	data    blockBuilder
	index   blockBuilder
	hashes  []uint64 // bloom.Hash of every key; the filter is sized at Finish
	lastKey []byte
	entries uint64
	first   []byte
	done    bool

	// Time bounds accumulated from TimestampOf over added keys.
	minTS, maxTS int64
	hasTS        bool

	// The column: blocks fill beside the data blocks and are written as they
	// do. hasCol goes false — for good — when Column rejects a value; blocks
	// already written are then unreferenced bytes.
	col      blockBuilder
	colIndex blockBuilder
	colVal   []byte
	colBytes uint64
	hasCol   bool

	// Compression ledger over data blocks: raw bytes in, stored bytes out.
	// Both stay zero when compression is off.
	rawIn     int64
	storedOut int64
	flate     *flate.Writer
	cbuf      bytes.Buffer
}

// NewWriter creates the table file at path (truncating any existing file).
func NewWriter(path string, opts WriterOptions) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: create: %w", err)
	}
	return &Writer{
		w:      bufio.NewWriterSize(f, 256<<10),
		file:   f,
		opts:   opts.withDefaults(),
		hasCol: opts.Column != nil,
	}, nil
}

// Add appends a key-value entry. Keys must be strictly ascending.
func (w *Writer) Add(key, value []byte) error {
	if w.done {
		return ErrClosed
	}
	if w.entries > 0 && bytes.Compare(key, w.lastKey) <= 0 {
		return fmt.Errorf("%w: %q after %q", ErrOutOfOrder, key, w.lastKey)
	}
	if w.entries == 0 {
		w.first = append([]byte(nil), key...)
	}
	if w.opts.TimestampOf != nil {
		if ts, ok := w.opts.TimestampOf(key); ok {
			if !w.hasTS || ts < w.minTS {
				w.minTS = ts
			}
			if !w.hasTS || ts > w.maxTS {
				w.maxTS = ts
			}
			w.hasTS = true
		}
	}
	w.data.add(key, value)
	w.lastKey = append(w.lastKey[:0], key...)
	if w.opts.BloomBitsPerKey >= 0 {
		w.hashes = append(w.hashes, bloom.Hash(key))
	}
	if w.hasCol {
		w.colVal, w.hasCol = w.opts.Column(w.colVal[:0], value)
		if w.hasCol {
			w.col.add(key, w.colVal)
		}
	}
	w.entries++
	if w.data.estimatedSize() >= w.opts.BlockSize {
		if err := w.flushBlock(&w.data, &w.index, true); err != nil {
			return err
		}
	}
	if w.hasCol && w.col.estimatedSize() >= w.opts.BlockSize {
		return w.flushColumnBlock()
	}
	return nil
}

// flushBlock writes the pending block of one sequence and records it in
// that sequence's index under the last key added.
func (w *Writer) flushBlock(b, index *blockBuilder, compressible bool) error {
	if b.empty() {
		return nil
	}
	h, err := w.writeBlock(b.finish(), compressible)
	if err != nil {
		return err
	}
	b.reset()
	var hb [16]byte
	h.encode(hb[:])
	index.add(w.lastKey, hb[:])
	return nil
}

func (w *Writer) flushColumnBlock() error {
	start := w.offset
	err := w.flushBlock(&w.col, &w.colIndex, false)
	w.colBytes += w.offset - start
	return err
}

// writeBlock emits a block plus its trailer (compression type + CRC over
// payload and type) and returns its handle. Only data blocks are
// compressible; a block that does not shrink stays raw.
func (w *Writer) writeBlock(raw []byte, compressible bool) (handle, error) {
	stored := raw
	ctype := NoCompression
	if compressible && w.opts.Compression == FlateCompression {
		w.rawIn += int64(len(raw))
		if cb, ok := w.compress(raw); ok {
			stored, ctype = cb, FlateCompression
		}
		w.storedOut += int64(len(stored))
	}
	h := handle{offset: w.offset, length: uint64(len(stored))}
	if _, err := w.w.Write(stored); err != nil {
		return handle{}, fmt.Errorf("sstable: write block: %w", err)
	}
	var tr [trailerLen]byte
	tr[0] = byte(ctype)
	putU32(tr[1:], crc32.Update(checksum(stored), crcTable, tr[:1]))
	if _, err := w.w.Write(tr[:]); err != nil {
		return handle{}, fmt.Errorf("sstable: write trailer: %w", err)
	}
	w.offset += uint64(len(stored)) + trailerLen
	return h, nil
}

// compress DEFLATE-encodes raw into the reusable buffer, reporting false
// when the result would not be smaller (the block is then stored raw).
func (w *Writer) compress(raw []byte) ([]byte, bool) {
	w.cbuf.Reset()
	if w.flate == nil {
		fw, err := flate.NewWriter(&w.cbuf, flate.BestSpeed)
		if err != nil {
			return nil, false
		}
		w.flate = fw
	} else {
		w.flate.Reset(&w.cbuf)
	}
	if _, err := w.flate.Write(raw); err != nil {
		return nil, false
	}
	if err := w.flate.Close(); err != nil {
		return nil, false
	}
	if w.cbuf.Len() >= len(raw) {
		return nil, false
	}
	return w.cbuf.Bytes(), true
}

func putU32(dst []byte, v uint32) {
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v >> 16)
	dst[3] = byte(v >> 24)
}

// Finish flushes remaining entries, writes the filter, index and footer,
// syncs and closes the file. The Writer is unusable afterwards.
func (w *Writer) Finish() error {
	if w.done {
		return ErrClosed
	}
	w.done = true
	if w.entries == 0 {
		w.file.Close()
		os.Remove(w.file.Name())
		return ErrEmptyTable
	}
	if err := w.flushBlock(&w.data, &w.index, true); err != nil {
		w.file.Close()
		return err
	}
	if w.hasCol {
		if err := w.flushColumnBlock(); err != nil {
			w.file.Close()
			return err
		}
	}

	ft := footer{
		entries:     w.entries,
		minTS:       w.minTS,
		maxTS:       w.maxTS,
		hasTS:       w.hasTS,
		compression: w.opts.Compression,
	}

	if w.opts.BloomBitsPerKey >= 0 {
		filter := bloom.NewFromHashes(w.hashes, w.opts.BloomBitsPerKey)
		h, err := w.writeBlock(filter, false)
		if err != nil {
			w.file.Close()
			return err
		}
		ft.bloom = h
	}

	if w.hasCol {
		h, err := w.writeBlock(w.colIndex.finish(), false)
		if err != nil {
			w.file.Close()
			return err
		}
		ft.column = h
		ft.columnBytes = w.colBytes + h.length + trailerLen
	}

	ih, err := w.writeBlock(w.index.finish(), false)
	if err != nil {
		w.file.Close()
		return err
	}
	ft.index = ih

	if _, err := w.w.Write(ft.encode()); err != nil {
		w.file.Close()
		return fmt.Errorf("sstable: write footer: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		w.file.Close()
		return fmt.Errorf("sstable: flush: %w", err)
	}
	if err := w.file.Sync(); err != nil {
		w.file.Close()
		return fmt.Errorf("sstable: sync: %w", err)
	}
	return w.file.Close()
}

// Abort discards the partially written table.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.file.Close()
	os.Remove(w.file.Name())
}

// EntryCount returns the number of entries added so far.
func (w *Writer) EntryCount() uint64 { return w.entries }

// TimeBounds reports the min/max timestamps extracted from added keys so
// far; ok is false when no key carried one.
func (w *Writer) TimeBounds() (min, max int64, ok bool) {
	return w.minTS, w.maxTS, w.hasTS
}

// CompressionStats reports the data-block compression ledger: raw bytes
// offered to the compressor and bytes actually stored. Both are zero when
// compression is off.
func (w *Writer) CompressionStats() (rawIn, storedOut int64) {
	return w.rawIn, w.storedOut
}
