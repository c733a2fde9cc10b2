package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// runTable is one table of the run-path tests: how it is written, and what
// a walk of it must account for.
type runTable struct {
	name    string
	kvs     map[string]string
	opts    WriterOptions
	minRuns int  // a full walk reads at least this many runs ...
	maxRuns int  // ... and at most this many
	column  bool // walk the column beside the data blocks
}

// bigKVs is n entries of valueLen bytes, with one value of bigLen bytes in
// the middle when bigLen > 0.
func bigKVs(n, valueLen, bigLen int) map[string]string {
	kvs := columnKVs(n, valueLen)
	if bigLen > 0 {
		kvs[fmt.Sprintf("key-%06d", n/2)] = strings.Repeat("x", bigLen-6) + fmt.Sprintf("%06d", n/2)
	}
	return kvs
}

// droppedColumnKVs is 300 rows of 1 000 bytes, one in the middle too short
// for tailColumn.
func droppedColumnKVs() map[string]string {
	kvs := columnKVs(300, 1000)
	kvs["key-000150"] = "short"
	return kvs
}

func runTables() []runTable {
	noFilter := WriterOptions{BloomBitsPerKey: -1}
	return []runTable{
		// One block: positioning loads it, nothing is left to run over.
		{name: "1-block", kvs: columnKVs(3, 1000), maxRuns: 0},
		// Two blocks, and no filter: the second block's run reaches the
		// index and the footer and is clipped at the end of the file.
		{name: "2-blocks-ending-at-index", kvs: columnKVs(6, 1000), opts: noFilter, minRuns: 1, maxRuns: 1},
		// 600 KiB of rows: ten runs' worth.
		{name: "N-blocks", kvs: columnKVs(600, 1000), minRuns: 9, maxRuns: 11},
		{name: "N-blocks-with-column", kvs: columnKVs(600, 1000), opts: WriterOptions{Column: tailColumn}, minRuns: 9, maxRuns: 12, column: true},
		// A block larger than a run is read on its own; the walk picks the
		// runs up again behind it.
		{name: "block-larger-than-run", kvs: bigKVs(200, 1000, runSize+4096), minRuns: 3, maxRuns: 6},
		{name: "small-blocks", kvs: columnKVs(2000, 60), opts: WriterOptions{BlockSize: 512, Column: tailColumn}, minRuns: 2, maxRuns: 4, column: true},
		// The column hook rejects a value halfway: the table has no column,
		// and the column blocks written before then are unreferenced bytes
		// between data blocks that the walk runs over.
		{name: "column-dropped", kvs: droppedColumnKVs(), opts: WriterOptions{Column: tailColumn}, minRuns: 4, maxRuns: 6},
	}
}

// open opens the table over a cache of its own, big enough to never evict.
func (rt runTable) open(t testing.TB) *Reader {
	t.Helper()
	cache := NewBlockCache(64 << 20)
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, rt.opts, rt.kvs)
	r, err := OpenWithCache(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// walk checks that it, from where it stands, yields exactly keys (in order)
// with the values of kvs — or their projections, for a column iterator.
func walk(t *testing.T, it *Iterator, keys []string, kvs map[string]string, column bool) {
	t.Helper()
	for i, k := range keys {
		if !it.Valid() {
			t.Fatalf("iterator ends before entry %d (%q): err %v", i, k, it.Error())
		}
		want := []byte(kvs[k])
		if column {
			want, _ = tailColumn(nil, want)
		}
		if string(it.Key()) != k || !bytes.Equal(it.Value(), want) {
			t.Fatalf("entry %d: %q = %d bytes, want %q = %d bytes", i, it.Key(), len(it.Value()), k, len(want))
		}
		it.Next()
	}
	if it.Valid() || it.Error() != nil {
		t.Fatalf("after %d entries: valid=%v err=%v", len(keys), it.Valid(), it.Error())
	}
}

// TestRunWalk: a sequential walk yields every table's entries whatever its
// shape, and reads the file in runs where there is more
// than one block to read.
func TestRunWalk(t *testing.T) {
	for _, rt := range runTables() {
		t.Run(rt.name, func(t *testing.T) {
			r := rt.open(t)
			defer r.Close()
			keys := sortedKeys(rt.kvs)
			before := r.cache.Stats()
			it := r.NewIterator()
			it.SeekToFirst()
			walk(t, it, keys, rt.kvs, false)
			st := r.cache.Stats()
			if runs := st.RunReads - before.RunReads; runs < int64(rt.minRuns) || runs > int64(rt.maxRuns) {
				t.Errorf("walk read %d runs, want %d..%d", runs, rt.minRuns, rt.maxRuns)
			}
			if runBytes, disk := st.RunBytes-before.RunBytes, st.DiskReadBytes-before.DiskReadBytes; runBytes > disk ||
				runBytes > (st.RunReads-before.RunReads)*runSize {
				t.Errorf("run bytes %d of %d disk bytes in %d runs", runBytes, disk, st.RunReads-before.RunReads)
			}
			if col := r.NewColumnIterator(); (col != nil) != rt.column {
				t.Fatalf("table has a column: %v, want %v", col != nil, rt.column)
			} else if rt.column {
				col.SeekToFirst()
				walk(t, col, keys, rt.kvs, true)
			}

			// Seek forwards into the table, walk a while, Seek backwards to
			// before anything a run holds, walk to the end.
			mid, early := len(keys)/2, len(keys)/10
			it.Seek([]byte(keys[mid]))
			walk(t, it, keys[mid:], rt.kvs, false)
			it.Seek([]byte(keys[mid]))
			for i := 0; i < len(keys)/4; i++ {
				it.Next()
			}
			it.Seek([]byte(keys[early]))
			walk(t, it, keys[early:], rt.kvs, false)
		})
	}
}

// TestRunBuffersAreNotShared: iterators over one reader each own their run,
// as the sources of a merge do — an entry one rests on is not disturbed by
// another refilling, nor by its own Key being read again after a refill.
func TestRunBuffersAreNotShared(t *testing.T) {
	rt := runTable{kvs: columnKVs(600, 1000)}
	r := rt.open(t)
	defer r.Close()
	keys := sortedKeys(rt.kvs)

	a, b := r.NewIterator(), r.NewIterator()
	a.SeekToFirst()
	for i := 0; i < 10; i++ { // onto a block served from a's first run
		a.Next()
	}
	key, value := a.Key(), a.Value() // the slices, not copies
	b.SeekToFirst()
	walk(t, b, keys, rt.kvs, false) // ten runs through b
	if string(key) != keys[10] || string(value) != rt.kvs[keys[10]] ||
		string(a.Key()) != keys[10] || string(a.Value()) != rt.kvs[keys[10]] {
		t.Fatalf("entry under a changed while b walked: %q", key)
	}
	walk(t, a, keys[10:], rt.kvs, false)
}

// TestClosedIteratorReadsAfresh: an iterator walked again after Close reads
// its blocks anew, not out of the run it held before, whose buffer the pool
// may since have handed to another iterator.
func TestClosedIteratorReadsAfresh(t *testing.T) {
	rt := runTable{kvs: columnKVs(300, 1000)}
	r := rt.open(t)
	defer r.Close()
	keys := sortedKeys(rt.kvs)

	a := r.NewIterator()
	a.SeekToFirst()
	walk(t, a, keys, rt.kvs, false) // a's last run holds the table's tail
	a.Close()
	b := r.NewIterator()
	b.SeekToFirst()
	for i := 0; i < 30; i++ { // into b's first run, likely in a's old buffer
		b.Next()
	}
	defer b.Close()
	a.Seek([]byte(keys[len(keys)-20]))
	walk(t, a, keys[len(keys)-20:], rt.kvs, false)
}

// TestPooledRunBuffersNotShared: iterators that close and reopen
// concurrently never hold one run buffer at once. Each claims its buffer
// from its first run until Close, checks every entry it walks against the
// table, closes twice (a second Close must not pool the buffer again), and
// walks again on the same iterator: from the first key, and from a key of
// the last run it read before Close, which it must read afresh. Under
// -race, two walks reading into one buffer also show as a data race.
func TestPooledRunBuffersNotShared(t *testing.T) {
	rt := runTable{kvs: columnKVs(300, 1000)} // ~75 blocks, five runs
	r := rt.open(t)
	defer r.Close()
	keys := sortedKeys(rt.kvs)

	var mu sync.Mutex
	held := map[*[runSize]byte]bool{}
	claim := func(buf *[runSize]byte, take bool) bool {
		mu.Lock()
		defer mu.Unlock()
		if take && held[buf] {
			return false
		}
		held[buf] = take
		return true
	}
	// walk walks it from keys[start] to the end and closes it.
	walk := func(it *Iterator, start int) error {
		var buf *[runSize]byte
		i := start
		for it.Seek([]byte(keys[start])); it.Valid(); it.Next() {
			if buf == nil && it.runBuf != nil {
				if buf = it.runBuf; !claim(buf, true) {
					return fmt.Errorf("from entry %d: a run buffer another live iterator holds", start)
				}
			}
			if i >= len(keys) || string(it.Key()) != keys[i] || string(it.Value()) != rt.kvs[keys[i]] {
				return fmt.Errorf("from entry %d: entry %d is %q", start, i, it.Key())
			}
			i++
		}
		if i != len(keys) || it.Error() != nil {
			return fmt.Errorf("from entry %d: %d of %d entries, err %v", start, i, len(keys), it.Error())
		}
		if buf != nil {
			claim(buf, false)
		}
		it.Close()
		it.Close()
		if it.Valid() {
			return fmt.Errorf("from entry %d: a closed iterator still rests on an entry", start)
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it := r.NewIterator()
			for round := 0; round < 20; round++ {
				if err := walk(it, 0); err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				if err := walk(it, len(keys)-20); err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// corruptDataBlock flips a byte in the middle of the n-th data block of a
// table image, leaving its checksum as it was, and returns how many entries
// precede that block.
func corruptDataBlock(t testing.TB, img []byte, n int) (entriesBefore int) {
	t.Helper()
	r, err := openImage(img)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	idx := r.index.iter()
	for i := 0; i <= n; i++ {
		if !idx.next() {
			t.Fatalf("table has only %d data blocks", i)
		}
		h := decodeHandle(idx.value)
		if i == n {
			img[h.offset+h.length/2] ^= 0x40
			return entriesBefore
		}
		b, err := r.dataBlock(h)
		if err != nil {
			t.Fatal(err)
		}
		for e := b.iter(); e.next(); {
			entriesBefore++
		}
	}
	return entriesBefore
}

// TestRunCorruptBlockMidRun: a damaged block in the middle of a run fails
// its own checksum when the walk reaches it — after every row before it was
// yielded, and without taking the sound blocks of the same run down with it.
func TestRunCorruptBlockMidRun(t *testing.T) {
	kvs := columnKVs(600, 1000)
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{Column: tailColumn}, kvs)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const damaged = 7 // blocks 1..16 or so share the first run
	before := corruptDataBlock(t, img, damaged)
	r, err := openImage(img)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := sortedKeys(kvs)
	it := r.NewIterator()
	it.SeekToFirst()
	n := 0
	for ; it.Valid(); it.Next() {
		if string(it.Key()) != keys[n] || string(it.Value()) != kvs[keys[n]] {
			t.Fatalf("entry %d = %q", n, it.Key())
		}
		n++
	}
	if n != before || !errors.Is(it.Error(), ErrCorrupt) {
		t.Fatalf("walk yielded %d entries and %v; want %d and ErrCorrupt", n, it.Error(), before)
	}
	if st := r.cache.Stats(); st.RunReads != 1 {
		t.Fatalf("the damaged block should sit inside the walk's first run: %d runs", st.RunReads)
	}
	// The blocks behind it are intact.
	it.Seek([]byte(keys[before+8]))
	walk(t, it, keys[before+8:], kvs, false)
}

// TestRunWalkLeavesCacheAlone: a full sequential walk of a table four times
// the cache evicts nothing and adds nothing — the column blocks an aggregate
// left resident are still there, beside the first data block that Open read.
func TestRunWalkLeavesCacheAlone(t *testing.T) {
	const capacity = 128 << 10
	kvs := columnKVs(4*capacity/1000, 1000)
	path := filepath.Join(t.TempDir(), "t.sst")
	buildTable(t, path, WriterOptions{Column: tailColumn}, kvs)
	cache := NewBlockCache(capacity)
	r, err := OpenWithCache(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() < 4*capacity {
		t.Fatalf("table of %d bytes is not four times the %d-byte cache", r.Size(), capacity)
	}
	keys := sortedKeys(kvs)

	col := r.NewColumnIterator()
	col.SeekToFirst()
	walk(t, col, keys, kvs, true)
	resident := cache.Stats()
	if resident.Blocks < 2 || resident.Evictions != 0 {
		t.Fatalf("column should be resident in several blocks: %+v", resident)
	}

	it := r.NewIterator()
	it.SeekToFirst()
	walk(t, it, keys, kvs, false)
	after := cache.Stats()
	if after.Evictions != 0 || after.Blocks != resident.Blocks || after.UsedBytes != resident.UsedBytes {
		t.Fatalf("data walk disturbed the cache: %+v -> %+v", resident, after)
	}
	if after.RunBytes-resident.RunBytes < r.Size()/2 {
		t.Fatalf("walk of a %d-byte table read only %d bytes in runs", r.Size(), after.RunBytes-resident.RunBytes)
	}

	col.SeekToFirst()
	walk(t, col, keys, kvs, true)
	if again := cache.Stats(); again.Misses != after.Misses || again.DiskReadBytes != after.DiskReadBytes {
		t.Fatalf("column blocks were not all still cached: %+v -> %+v", after, again)
	}
}

// TestSequentialWalkAllocatesPerRun guards the read path's allocation
// profile: a walk allocates for its iterator and its one run buffer, not per
// block — block views, block iterators and restart arrays are reused.
func TestSequentialWalkAllocatesPerRun(t *testing.T) {
	rt := runTable{kvs: columnKVs(1000, 1000)} // ~250 blocks, ~16 runs
	r := rt.open(t)
	defer r.Close()
	want := len(rt.kvs)
	allocs := testing.AllocsPerRun(5, func() {
		n := 0
		it := r.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if n != want || it.Error() != nil {
			t.Fatalf("walked %d of %d entries: %v", n, want, it.Error())
		}
	})
	// The iterator, its index cursor, the run buffer, the key buffer's
	// growth: a handful, where there are 250 blocks.
	if allocs > 10 {
		t.Fatalf("a sequential walk of ~250 blocks made %.0f allocations; want a handful per walk", allocs)
	}
}
