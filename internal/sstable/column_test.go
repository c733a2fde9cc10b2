package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tpcxiot/internal/bloom"
)

// columnKVs returns n entries of valueLen-byte values: repetitive filler
// ending in six digits that differ per entry.
func columnKVs(n, valueLen int) map[string]string {
	kvs := make(map[string]string, n)
	pad := strings.Repeat("temperature=23.5C humidity=40% ", valueLen/31+1)[:valueLen-6]
	for i := 0; i < n; i++ {
		kvs[fmt.Sprintf("key-%06d", i)] = fmt.Sprintf("%s%06d", pad, i)
	}
	return kvs
}

// tailColumn is the test projection: the last six bytes of a value (the
// digits of columnKVs and seqKVs values), rejecting anything shorter.
func tailColumn(dst, value []byte) ([]byte, bool) {
	if len(value) < 6 {
		return dst, false
	}
	return append(dst, value[len(value)-6:]...), true
}

func sortedKeys(kvs map[string]string) []string {
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkColumn walks a table's data blocks and column in lockstep: the same
// keys in the same order, each column value the projection of its data
// value.
func checkColumn(t *testing.T, r *Reader, kvs map[string]string) {
	t.Helper()
	data, col := r.NewIterator(), r.NewColumnIterator()
	if col == nil {
		t.Fatal("table has no column")
	}
	data.SeekToFirst()
	col.SeekToFirst()
	n := 0
	for ; data.Valid() && col.Valid(); data.Next() {
		want, _ := tailColumn(nil, data.Value())
		if !bytes.Equal(col.Key(), data.Key()) || !bytes.Equal(col.Value(), want) {
			t.Fatalf("entry %d: column has %q=%q, data %q projects to %q", n, col.Key(), col.Value(), data.Key(), want)
		}
		n++
		col.Next()
	}
	if data.Valid() || col.Valid() || data.Error() != nil || col.Error() != nil {
		t.Fatalf("sequences diverge after %d entries: data valid=%v err=%v, column valid=%v err=%v",
			n, data.Valid(), data.Error(), col.Valid(), col.Error())
	}
	if n != len(kvs) {
		t.Fatalf("walked %d entries, want %d", n, len(kvs))
	}
}

// TestColumnRoundTrip: a table written with the hook carries a column over
// many blocks of its own, a fraction of the file, seekable like the data
// blocks; the same table without the hook has none and is that much smaller.
func TestColumnRoundTrip(t *testing.T) {
	dir := t.TempDir()
	kvs := columnKVs(3000, 500)
	with, without := filepath.Join(dir, "with.sst"), filepath.Join(dir, "without.sst")
	buildTable(t, with, WriterOptions{Column: tailColumn, BlockSize: 1024}, kvs)
	buildTable(t, without, WriterOptions{BlockSize: 1024}, kvs)

	r, err := Open(with)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkColumn(t, r, kvs)

	plain, err := Open(without)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.NewColumnIterator() != nil || plain.ColumnBytes() != 0 {
		t.Fatalf("table written without the hook reports a column of %d bytes", plain.ColumnBytes())
	}
	if got := r.Size() - plain.Size(); got != r.ColumnBytes() || got <= 0 {
		t.Fatalf("column makes the file %d bytes larger, ColumnBytes says %d", got, r.ColumnBytes())
	}
	if r.ColumnBytes()*10 > r.Size() {
		t.Fatalf("column is %d of %d bytes; a 6-byte projection of 500-byte values should be a few percent", r.ColumnBytes(), r.Size())
	}
	if n := len(r.colIndex.restarts); n < 2 {
		t.Fatalf("column index has %d restart runs; the test wants a column of many blocks", n)
	}
	if _, last := r.Bounds(); string(last) != sortedKeys(kvs)[len(kvs)-1] {
		t.Fatalf("last bound %q", last)
	}

	// Seek lands on the first key >= target in either sequence.
	keys := sortedKeys(kvs)
	for _, i := range []int{0, 1, 17, 1500, 2999} {
		for _, target := range []string{keys[i], keys[i] + "\x00"} {
			data, col := r.NewIterator(), r.NewColumnIterator()
			data.Seek([]byte(target))
			col.Seek([]byte(target))
			if data.Valid() != col.Valid() || (data.Valid() && !bytes.Equal(data.Key(), col.Key())) {
				t.Fatalf("Seek(%q): data valid=%v, column valid=%v", target, data.Valid(), col.Valid())
			}
		}
	}
}

// TestColumnIsAllOrNothing: one value the projection rejects — in the middle,
// after column blocks have already gone to disk — leaves a readable table
// with no column.
func TestColumnIsAllOrNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	kvs := columnKVs(2000, 500)
	kvs[sortedKeys(kvs)[1500]] = "short"
	buildTable(t, path, WriterOptions{Column: tailColumn, BlockSize: 1024}, kvs)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NewColumnIterator() != nil || r.ColumnBytes() != 0 {
		t.Fatalf("table with a rejected value reports a column of %d bytes", r.ColumnBytes())
	}
	for k, v := range kvs {
		if got, err := r.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %d bytes, %v", k, len(got), err)
		}
	}
}

// TestFilterBuiltFromHashesOnAppend: the writer keeps a hash per key, not the
// key, and the filter block it writes is byte for byte bloom.New's over the
// same keys — what tables written before carry.
func TestFilterBuiltFromHashesOnAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	kvs := seqKVs(5000)
	buildTable(t, path, WriterOptions{BloomBitsPerKey: 12}, kvs)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var keys [][]byte
	for _, k := range sortedKeys(kvs) {
		keys = append(keys, []byte(k))
	}
	if want := bloom.New(keys, 12); !bytes.Equal(r.filter, want) {
		t.Fatalf("filter block is %d bytes and differs from bloom.New's %d", len(r.filter), len(want))
	}
}

// TestEntryLengthOverflowRejected: an entry whose key and value lengths sum
// past 2^64 back to something small is corruption, not a slice out of range.
func TestEntryLengthOverflowRejected(t *testing.T) {
	entry := binary.AppendUvarint(nil, 0)           // shared
	entry = binary.AppendUvarint(entry, ^uint64(0)) // unshared key length
	entry = binary.AppendUvarint(entry, 30)         // value length
	entry = append(entry, "padding so the wrapped sum fits"...)
	raw := binary.LittleEndian.AppendUint32(entry, 0) // one restart, at 0
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	b, err := parseBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	it := b.iter()
	if it.seekToFirst(); it.valid || !errors.Is(it.err, ErrCorrupt) {
		t.Fatalf("seekToFirst: valid=%v err=%v", it.valid, it.err)
	}
	it = b.iter()
	if it.seek([]byte("k")); it.valid || !errors.Is(it.err, ErrCorrupt) {
		t.Fatalf("seek: valid=%v err=%v", it.valid, it.err)
	}
}
