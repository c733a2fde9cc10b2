package sstable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// flateFixture is a 64-entry table written, before flate compression was
// removed, with its data blocks DEFLATE-compressed: footer byte 56 and the
// data blocks' trailer type bytes are 1.
const flateFixture = "testdata/flate.sst"

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFlateTableRefused: a table a flate-compressing writer produced is
// refused at Open, as a v1 or v2 table is.
func TestFlateTableRefused(t *testing.T) {
	img := readFile(t, flateFixture)
	if img[len(img)-footerLen+56] != 1 {
		t.Fatal("fixture footer does not declare flate")
	}
	if _, err := Open(flateFixture); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(flate table) = %v, want ErrCorrupt", err)
	}
}

// TestFooterEncodingByteRefused: footer byte 56 is written as 0; a table
// whose footer says anything else is refused at Open.
func TestFooterEncodingByteRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{}, seqKVs(100))
	img := readFile(t, path)
	if img[len(img)-footerLen+56] != 0 {
		t.Fatalf("writer set footer byte 56 to %d", img[len(img)-footerLen+56])
	}
	if _, err := openImage(img); err != nil {
		t.Fatal(err)
	}
	img[len(img)-footerLen+56] = 1
	if _, err := openImage(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with footer byte 56 = 1: %v, want ErrCorrupt", err)
	}
}

// TestCompressedCorruptionDetected: a data block whose trailer type byte
// says compressed (1), under a checksum recomputed to match, fails Get and
// the walk that reach it with ErrCorrupt; the blocks before it still read.
func TestCompressedCorruptionDetected(t *testing.T) {
	kvs := seqKVs(500)
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{BlockSize: 256}, kvs)
	img := readFile(t, path)
	r, err := openImage(img)
	if err != nil {
		t.Fatal(err)
	}
	idx := r.index.iter()
	for i := 0; i < 3; i++ {
		idx.next()
	}
	h := decodeHandle(idx.value)
	damaged := string(idx.key) // the block's last key
	r.Close()
	end := h.offset + h.length
	img[end] = 1
	binary.LittleEndian.PutUint32(img[end+1:], crc32.Update(checksum(img[h.offset:end]), crcTable, img[end:end+1]))

	if r, err = openImage(img); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get([]byte(damaged)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get in the marked block: %v, want ErrCorrupt", err)
	}
	if _, err := r.Get([]byte(sortedKeys(kvs)[0])); err != nil {
		t.Fatalf("Get in the first block: %v", err)
	}
	it := r.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if n == 0 || !errors.Is(it.Error(), ErrCorrupt) {
		t.Fatalf("walk yielded %d entries and %v, want some then ErrCorrupt", n, it.Error())
	}
}
