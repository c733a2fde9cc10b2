package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tpcxiot/internal/wal"
)

func openTest(t testing.TB, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.WALSync = wal.SyncNever // keep tests fast
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// scan calls fn for every live entry of [lo, hi) through NewIterator, in
// key order, and stops at fn's first error. fn's slices are valid only
// during the call.
func scan(s *Store, lo, hi []byte, fn func(key, value []byte) error) error {
	it, err := s.NewIterator(lo, hi)
	if err != nil {
		return err
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if err := fn(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	return it.Error()
}

func TestPutGetOverwrite(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if err := s.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.Get([]byte("k1")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get after overwrite = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := s.Get([]byte("never")); ok {
		t.Fatal("absent key reported present")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put(nil, []byte("v")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("Put(empty): %v", err)
	}
	if _, _, err := s.Get(nil); !errors.Is(err, ErrBadKey) {
		t.Fatalf("Get(empty): %v", err)
	}
}

func TestOverwriteAcrossFlush(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	s.Put([]byte("k"), []byte("old"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("new"))
	v, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get = %q,%v,%v; memtable must shadow table", v, ok, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = s.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Fatalf("Get across two tables = %q,%v; newer table must win", v, ok)
	}
}

func TestOverwriteAcrossFlushAndCompaction(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	s.Put([]byte("moved"), []byte("stale"))
	s.Put([]byte("stays"), []byte("v"))
	s.Flush()
	s.Put([]byte("moved"), []byte("fresh"))
	s.Flush()

	if v, ok, _ := s.Get([]byte("moved")); !ok || string(v) != "fresh" {
		t.Fatalf("Get = %q,%v; the newer table must shadow the older value", v, ok)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get([]byte("moved")); !ok || string(v) != "fresh" {
		t.Fatalf("Get after compaction = %q,%v; the stale version came back", v, ok)
	}
	if v, ok, _ := s.Get([]byte("stays")); !ok || string(v) != "v" {
		t.Fatal("key lost in compaction")
	}
	var got []string
	if err := scan(s, nil, nil, func(k, v []byte) error {
		got = append(got, fmt.Sprintf("%s=%s", k, v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[moved=fresh stays=v]" {
		t.Fatalf("scan after compaction = %v", got)
	}
	if ts := s.TableStats(); len(ts) != 1 || ts[0].Entries != 2 {
		t.Fatalf("tables after full compaction = %+v, want one of 2 entries", ts)
	}
}

func TestScanMergesAllSources(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	// Old table
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("c"), []byte("old-c"))
	s.Flush()
	// Newer table
	s.Put([]byte("b"), []byte("2"))
	s.Put([]byte("c"), []byte("new-c"))
	s.Flush()
	// Memtable
	s.Put([]byte("d"), []byte("4"))
	s.Put([]byte("a"), []byte("new-a"))

	var got []string
	err := scan(s, []byte("a"), nil, func(k, v []byte) error {
		got = append(got, fmt.Sprintf("%s=%s", k, v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[a=new-a b=2 c=new-c d=4]"
	if fmt.Sprint(got) != want {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestScanBounds(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	count := 0
	err := scan(s, []byte("k010"), []byte("k020"), func(k, v []byte) error {
		count++
		return nil
	})
	if err != nil || count != 10 {
		t.Fatalf("scan [k010,k020) = %d entries, err %v; want 10", count, err)
	}
	if err := scan(s, []byte("z"), []byte("a"), func(k, v []byte) error { return nil }); !errors.Is(err, ErrBadRange) {
		t.Fatalf("inverted scan: %v", err)
	}
}

func TestAutoFlushAtThreshold(t *testing.T) {
	s := openTest(t, Options{MemtableSize: 32 << 10})
	val := bytes.Repeat([]byte{'v'}, 1024)
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil { // drain whatever is pending
		t.Fatal(err)
	}
	if s.Stats().Flushes == 0 {
		t.Fatal("no flush occurred despite exceeding the memtable threshold")
	}
	// All keys must remain visible after flushes.
	for i := 0; i < 100; i += 7 {
		if _, ok, _ := s.Get([]byte(fmt.Sprintf("key-%06d", i))); !ok {
			t.Fatalf("key %d lost across auto-flush", i)
		}
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Put([]byte("k010"), []byte("v10-new"))
	// Simulate a crash: close the log without flushing the memtable.
	// (Close() flushes, so reach into the WAL directly by abandoning the
	// store after syncing its log.)
	if err := s.log.Sync(); err != nil {
		t.Fatal(err)
	}
	s.log.Close()

	s2, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		v, ok, err := s2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("v%d", i)
		if i == 10 {
			want = "v10-new" // the replayed overwrite shadows the first put
		}
		if !ok || string(v) != want {
			t.Fatalf("recovery lost %s: %q,%v", k, v, ok)
		}
	}
}

func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("persist"), []byte("me"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get([]byte("persist"))
	if !ok || string(v) != "me" {
		t.Fatalf("clean reopen lost data: %q,%v", v, ok)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if err := s.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := s.NewIterator(nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewIterator after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDestroyRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("v"))
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, WALSync: wal.SyncNever}); err != nil {
		t.Fatalf("reopen after destroy should create empty store: %v", err)
	}
}

func TestCompactionTriggeredByFileCount(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true, CompactTrigger: 3, MaxStoreFiles: 5})
	for f := 0; f < 4; f++ {
		s.Put([]byte(fmt.Sprintf("f%d", f)), []byte("v"))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Tables; got != 1 {
		t.Fatalf("TableCount = %d after compaction, want 1", got)
	}
	for f := 0; f < 4; f++ {
		if _, ok, _ := s.Get([]byte(fmt.Sprintf("f%d", f))); !ok {
			t.Fatalf("key f%d lost in compaction", f)
		}
	}
}

func TestBackpressureBlocksAndRecovers(t *testing.T) {
	// Tiny caps force the write path through the stall-and-compact cycle.
	s := openTest(t, Options{
		MemtableSize:   2 << 10,
		MaxStoreFiles:  4,
		CompactTrigger: 2,
	})
	val := bytes.Repeat([]byte{'v'}, 512)
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 200; i += 13 {
		if _, ok, _ := s.Get([]byte(fmt.Sprintf("key-%06d", i))); !ok {
			t.Fatalf("key %d lost under backpressure", i)
		}
	}
}

func TestConcurrentWritesAndReads(t *testing.T) {
	s := openTest(t, Options{MemtableSize: 64 << 10})
	const writers = 4
	const per = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-%06d", w, i))
				if err := s.Put(k, bytes.Repeat([]byte{'x'}, 256)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%10 == 0 {
					if _, _, err := s.Get(k); err != nil {
						t.Errorf("get: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	if err := scan(s, nil, nil, func(k, v []byte) error { total++; return nil }); err != nil {
		t.Fatal(err)
	}
	if total != writers*per {
		t.Fatalf("scan found %d keys, want %d", total, writers*per)
	}
}

func TestStatsCounters(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("a"), []byte("2"))
	s.Get([]byte("a"))
	scan(s, nil, nil, func(k, v []byte) error { return nil })
	s.Flush()
	st := s.Stats()
	if st.Puts != 2 || st.Gets != 1 || st.Scans != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	// Keys repeat across flushes, so later puts shadow earlier ones in other
	// tables and in the memtable.
	type op struct {
		K uint8
		V uint16
	}
	f := func(ops []op) bool {
		s := openTest(t, Options{DisableAutoFlush: true, MemtableSize: 1 << 20})
		model := map[string]string{}
		for i, o := range ops {
			k := fmt.Sprintf("key-%03d", o.K%64)
			v := fmt.Sprintf("val-%05d", o.V)
			if s.Put([]byte(k), []byte(v)) != nil {
				return false
			}
			model[k] = v
			if i%7 == 3 {
				if s.Flush() != nil {
					return false
				}
			}
		}
		// Verify gets.
		for k, v := range model {
			got, ok, err := s.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		// Verify full scan matches the model exactly.
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		err := scan(s, nil, nil, func(k, v []byte) error {
			if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
				return fmt.Errorf("mismatch at %d", i)
			}
			i++
			return nil
		})
		return err == nil && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut1KiB(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), WALSync: wal.SyncNever, MemtableSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 1024)
	key := make([]byte, 0, 32)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = key[:0]
		key = fmt.Appendf(key, "key-%020d", i)
		if err := s.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan100(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), WALSync: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 20000
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("key-%012d", i)), bytes.Repeat([]byte{'v'}, 1024))
	}
	s.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 97) % (n - 100)
		lo := []byte(fmt.Sprintf("key-%012d", start))
		hi := []byte(fmt.Sprintf("key-%012d", start+100))
		count := 0
		if err := scan(s, lo, hi, func(k, v []byte) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != 100 {
			b.Fatalf("scan returned %d", count)
		}
	}
}

// TestScanDuringCompactionKeepsReaders pins the table-handle reference
// counting: a compaction retiring store files must not close their readers
// under an in-flight scan. Before refcounting this raced to "file already
// closed" (and lost rows) whenever a full-store scan overlapped compaction.
func TestScanDuringCompactionKeepsReaders(t *testing.T) {
	s := openTest(t, Options{
		DisableAutoFlush: true,
		MemtableSize:     1 << 20,
		CompactTrigger:   1 << 30, // compactions run only when we ask
	})
	const keys = 2000
	for i := 0; i < keys; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i%250 == 249 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Tables < 2 {
		t.Fatalf("need several store files, have %d", s.Stats().Tables)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				n := 0
				if err := scan(s, nil, nil, func(k, v []byte) error {
					n++
					return nil
				}); err != nil {
					errs <- err
					return
				}
				if n != keys {
					errs <- fmt.Errorf("scan saw %d rows, want %d", n, keys)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := s.Compact(); err != nil {
				errs <- fmt.Errorf("compact: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
