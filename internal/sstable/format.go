// Package sstable implements the immutable on-disk table format of the
// storage engine, in the spirit of HBase HFiles and LevelDB tables.
//
// A table is a sequence of blocks:
//
//	[data block | column block]*
//	[bloom filter block]
//	[column index block]   (only when the table has a column)
//	[index block]
//	[footer]
//
// Data blocks hold key-value entries in sorted order with shared-prefix key
// compression and restart points for binary search. The index block maps
// the last key of every data block to its file position. The Bloom filter
// covers all keys in the table and lets point reads skip the table without
// touching a data block. Every block is protected by a CRC32C checksum.
//
// The column is a second block sequence in the same block
// format with an index of its own: one entry per data entry, same key, whose
// value is WriterOptions.Column's projection of the data value — a few bytes
// where the value is a kilobyte. Column blocks are emitted between data
// blocks as they fill, stored raw, and found only through the column index,
// so a reader that wants just the projection never touches a data block. A
// table has a column for every entry or no column at all.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Sentinel errors.
var (
	ErrCorrupt    = errors.New("sstable: corrupt table")
	ErrClosed     = errors.New("sstable: reader is closed")
	ErrOutOfOrder = errors.New("sstable: keys added out of order")
	ErrEmptyTable = errors.New("sstable: table has no entries")
	ErrNotFound   = errors.New("sstable: key not found")
	errBadMagic   = errors.New("sstable: bad magic")
)

const (
	// magicV3 marks the footer ("IoTSSTb3"), the only version read or
	// written. Versions 1 and 2 ("IoTSSTb1", "IoTSSTb2") are refused.
	magicV3 uint64 = 0x496f545353546233

	// footerLen: index handle (16) + bloom handle (16) + entry count (8) +
	// min timestamp (8) + max timestamp (8) + reserved zero byte (1) +
	// flags (1) + reserved (6) + column index handle (16) + column bytes
	// (8) + magic (8). The column fields are zero for a table without a
	// column.
	footerLen = 96

	// restartInterval is the number of entries between restart points in a
	// data block.
	restartInterval = 16

	// trailerLen: 1-byte type, always 0 (raw), + 4-byte CRC32C over the
	// payload plus the type byte, after every block.
	trailerLen = 5
)

// footer flag bits.
const flagHasTimeBounds = 1 << 0

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// handle locates a block within the file.
type handle struct {
	offset uint64
	length uint64 // excluding the checksum trailer
}

func (h handle) encode(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], h.offset)
	binary.LittleEndian.PutUint64(dst[8:16], h.length)
}

func decodeHandle(b []byte) handle {
	return handle{
		offset: binary.LittleEndian.Uint64(b[0:8]),
		length: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// footer is the fixed-size tail of the file. minTS/maxTS are POSIX-ms
// timestamps extracted from the keys at write time; hasTS is false when no
// key carried an extractable timestamp (the bounds are then meaningless).
//
// column locates the column index block and columnBytes is everything the
// column added to the file (its blocks, their trailers and its index); both
// are zero for a table written without a column.
type footer struct {
	index       handle
	bloom       handle
	entries     uint64
	minTS       int64
	maxTS       int64
	hasTS       bool
	column      handle
	columnBytes uint64
}

// encode serialises the footer.
func (f footer) encode() []byte {
	out := make([]byte, footerLen)
	f.index.encode(out[0:16])
	f.bloom.encode(out[16:32])
	binary.LittleEndian.PutUint64(out[32:40], f.entries)
	binary.LittleEndian.PutUint64(out[40:48], uint64(f.minTS))
	binary.LittleEndian.PutUint64(out[48:56], uint64(f.maxTS))
	if f.hasTS {
		out[57] |= flagHasTimeBounds
	}
	f.column.encode(out[64:80])
	binary.LittleEndian.PutUint64(out[80:88], f.columnBytes)
	binary.LittleEndian.PutUint64(out[88:96], magicV3)
	return out
}

// decodeFooter parses the last footerLen bytes of a file. Any magic but
// magicV3, v1's and v2's included, is errBadMagic; a nonzero byte 56 (a
// flate-compressed table's) is refused too.
func decodeFooter(b []byte) (footer, error) {
	if binary.LittleEndian.Uint64(b[88:96]) != magicV3 {
		return footer{}, errBadMagic
	}
	if b[56] != 0 {
		return footer{}, fmt.Errorf("block encoding %d", b[56])
	}
	return footer{
		index:       decodeHandle(b[0:16]),
		bloom:       decodeHandle(b[16:32]),
		entries:     binary.LittleEndian.Uint64(b[32:40]),
		minTS:       int64(binary.LittleEndian.Uint64(b[40:48])),
		maxTS:       int64(binary.LittleEndian.Uint64(b[48:56])),
		hasTS:       b[57]&flagHasTimeBounds != 0,
		column:      decodeHandle(b[64:80]),
		columnBytes: binary.LittleEndian.Uint64(b[80:88]),
	}, nil
}

func checksum(block []byte) uint32 {
	return crc32.Checksum(block, crcTable)
}

func sharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
