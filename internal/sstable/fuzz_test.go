package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tpcxiot/internal/bloom"
)

// memFile is a table image in memory, so the fuzzer opens one per input
// without touching the filesystem.
type memFile struct{ *bytes.Reader }

func (memFile) Close() error { return nil }

func openImage(img []byte) (*Reader, error) {
	return openFile(memFile{bytes.NewReader(img)}, int64(len(img)), NewBlockCache(1<<20))
}

// v2Table lays a table out the way the retired footer version 2 did —
// 5-byte trailers and a 72-byte footer ending in the magic "IoTSSTb2", no
// time bounds, no compression — a well-formed table of a format the reader
// no longer accepts. (The image was compared, once, byte for byte with what
// the last v2-writing commit's Writer produced from the same entries.)
func v2Table(kvs map[string]string) []byte {
	var img []byte
	writeBlock := func(raw []byte) handle {
		h := handle{offset: uint64(len(img)), length: uint64(len(raw))}
		img = append(img, raw...)
		img = append(img, 0)
		crc := crc32.Update(checksum(raw), crcTable, []byte{0})
		img = binary.LittleEndian.AppendUint32(img, crc)
		return h
	}
	var data, index blockBuilder
	var keys [][]byte
	var last []byte
	flush := func() {
		var hb [16]byte
		writeBlock(data.finish()).encode(hb[:])
		data.reset()
		index.add(last, hb[:])
	}
	for _, k := range sortedKeys(kvs) {
		last = []byte(k)
		keys = append(keys, last)
		data.add(last, []byte(kvs[k]))
		if data.estimatedSize() >= 4<<10 {
			flush()
		}
	}
	if !data.empty() {
		flush()
	}
	bh := writeBlock(bloom.New(keys, 0))
	ih := writeBlock(index.finish())
	var ft [72]byte
	ih.encode(ft[0:16])
	bh.encode(ft[16:32])
	binary.LittleEndian.PutUint64(ft[32:40], uint64(len(keys)))
	binary.LittleEndian.PutUint64(ft[64:72], 0x496f545353546232)
	return append(img, ft[:]...)
}

// v1Table lays kvs out as the retired footer version 1 did — one data block,
// 4-byte CRC trailers and a 48-byte footer ending in the magic "IoTSSTb1" —
// a well-formed table of a format the reader no longer accepts.
func v1Table(kvs map[string]string) []byte {
	var img []byte
	writeBlock := func(raw []byte) handle {
		h := handle{offset: uint64(len(img)), length: uint64(len(raw))}
		img = binary.LittleEndian.AppendUint32(append(img, raw...), checksum(raw))
		return h
	}
	var data, index blockBuilder
	var keys [][]byte
	for _, k := range sortedKeys(kvs) {
		keys = append(keys, []byte(k))
		data.add([]byte(k), []byte(kvs[k]))
	}
	var hb [16]byte
	writeBlock(data.finish()).encode(hb[:])
	index.add(keys[len(keys)-1], hb[:])
	bh := writeBlock(bloom.New(keys, 0))
	ih := writeBlock(index.finish())
	var ft [48]byte
	ih.encode(ft[0:16])
	bh.encode(ft[16:32])
	binary.LittleEndian.PutUint64(ft[32:40], uint64(len(keys)))
	binary.LittleEndian.PutUint64(ft[40:48], 0x496f545353546231)
	return append(img, ft[:]...)
}

// seedImages are the committed corpus: a well-formed table, tables of the
// retired footer versions 1 and 2, a flate-compressed table (flateFixture),
// and the damaged tables a reader is most likely to trip on. wantOpen says whether Open must
// accept the image — a refused one fails with ErrCorrupt; damage past the
// footer and indexes surfaces later, from an iterator.
type seedImage struct {
	img      []byte
	wantOpen bool
}

func seedImages(t testing.TB) map[string]seedImage {
	kvs := columnKVs(200, 60)
	path := filepath.Join(t.TempDir(), "v3.sst")
	buildTable(t, path, WriterOptions{Column: tailColumn, BlockSize: 512}, kvs)
	v3 := readFile(t, path)
	footerAt := len(v3) - footerLen
	edit := func(f func(img []byte)) []byte {
		img := append([]byte(nil), v3...)
		f(img)
		return img
	}
	colIndex := decodeHandle(v3[footerAt+64:])
	return map[string]seedImage{
		"v1":               {v1Table(kvs), false},
		"v2":               {v2Table(kvs), false},
		"flate":            {readFile(t, flateFixture), false},
		"v3":               {v3, true},
		"truncated-footer": {v3[:len(v3)-footerLen/2], false},
		"column-index-past-eof": {edit(func(img []byte) {
			handle{offset: uint64(len(img)), length: colIndex.length}.encode(img[footerAt+64:])
		}), false},
		// offset+length wraps around uint64 to a small number: the bounds
		// check must not follow it (this one panicked in make before).
		"column-index-handle-overflow": {edit(func(img []byte) {
			handle{offset: colIndex.offset, length: ^uint64(0) - colIndex.offset - 2}.encode(img[footerAt+64:])
		}), false},
		// The first column block's restart count claims more restarts than
		// the block has bytes, under a checksum that matches.
		"column-block-bad-restarts": {edit(func(img []byte) {
			r, err := openImage(v3)
			if err != nil {
				t.Fatal(err)
			}
			first := r.colIndex.iter()
			first.next()
			h := decodeHandle(first.value)
			end := h.offset + h.length
			binary.LittleEndian.PutUint32(img[end-4:], 1<<30)
			binary.LittleEndian.PutUint32(img[end+1:], crc32.Update(checksum(img[h.offset:end]), crcTable, img[end:end+1]))
		}), true},
		// A data block damaged under its old checksum, in the middle of the
		// run a sequential walk reads the table in.
		"data-block-corrupt-mid-run": {edit(func(img []byte) { corruptDataBlock(t, img, 7) }), true},
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzReaderOpen from seedImages")

const corpusDir = "testdata/fuzz/FuzzReaderOpen"

// TestSeedCorpus keeps the committed corpus honest: every seed is present,
// is the image seedImages describes, and opens or fails as recorded.
// Regenerate with: go test ./internal/sstable -run TestSeedCorpus -update-corpus
func TestSeedCorpus(t *testing.T) {
	seeds := seedImages(t)
	for name, seed := range seeds {
		path := filepath.Join(corpusDir, name)
		encoded := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.img)
		if *updateCorpus {
			if err := os.MkdirAll(corpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(encoded), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != encoded {
			t.Errorf("%s is stale; rerun with -update-corpus", path)
		}
		// The committed bytes, decoded the way the fuzz engine decodes them.
		quoted := strings.TrimSuffix(strings.TrimPrefix(string(got), "go test fuzz v1\n[]byte("), ")\n")
		img, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		r, err := openImage([]byte(img))
		if (err == nil) != seed.wantOpen || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Errorf("%s: open error %v, want open=%v or ErrCorrupt", name, err, seed.wantOpen)
		}
		if err == nil {
			r.Close()
		}
	}
	// The damaged column block opens (the footer and indexes are sound) and
	// fails cleanly where the fold would reach it.
	r, err := openImage(seeds["column-block-bad-restarts"].img)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	col := r.NewColumnIterator()
	if col.SeekToFirst(); col.Valid() || col.Error() == nil {
		t.Fatalf("column iterator over a block with a bad restart array: valid=%v err=%v", col.Valid(), col.Error())
	}
	// The damaged data block opens too, and stops the walk that reaches it.
	r, err = openImage(seeds["data-block-corrupt-mid-run"].img)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	if !errors.Is(it.Error(), ErrCorrupt) {
		t.Fatalf("walk over a damaged data block: %v", it.Error())
	}
}

// FuzzReaderOpen feeds arbitrary bytes to the reader as a table file: open,
// walk the data blocks and the column side by side, Seek and Get. Whatever
// the bytes, the outcome is an error or a consistent table — never a panic,
// and never a column entry whose key the data blocks do not hold at the same
// position.
func FuzzReaderOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		r, err := openImage(img)
		if err != nil {
			return
		}
		defer r.Close()
		data, col := r.NewIterator(), r.NewColumnIterator()
		data.SeekToFirst()
		if col != nil {
			col.SeekToFirst()
		}
		var probe []byte
		for n := 0; data.Valid(); n++ {
			if n%37 == 0 {
				probe = append(probe[:0], data.Key()...)
			}
			if col != nil {
				if col.Error() != nil {
					col = nil
				} else if !col.Valid() || !bytes.Equal(col.Key(), data.Key()) {
					t.Fatalf("entry %d: data key %q, column valid=%v", n, data.Key(), col.Valid())
				} else {
					col.Next()
				}
			}
			data.Next()
		}
		if data.Error() == nil && col != nil && col.Valid() {
			t.Fatalf("column entry %q past the last data entry", col.Key())
		}
		for _, key := range [][]byte{probe, append(probe, 0), nil} {
			r.Get(key)
			r.MayContain(key)
			data.Seek(key)
			if col := r.NewColumnIterator(); col != nil {
				col.Seek(key)
			}
		}
	})
}
